// Flat reference walks for the periodic programs. The runtime compiles a
// rank's ownership and a transfer's copy list in closed form
// (mapping::ConcreteLayout::owned_program, redist::compile_transfer); the
// walks here enumerate the same stretches one period window at a time,
// so the property tests can assert that every periodic program expands
// to exactly the flat list. The per-element value loops are the
// definitions the value kernels of runtime/expected.hpp must reproduce.
// route_superstep is the reference router of net::Message supersteps,
// and route_slots its arena form, which the runtime's arena path is
// compared against in process; exchange_messages adapts the proc
// backend's arena exchange to net::Message supersteps so the two
// routers can be compared message by message.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/proc_backend.hpp"
#include "mapping/layout.hpp"
#include "mapping/runs.hpp"
#include "net/message.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "runtime/expected.hpp"

namespace hpfc::testing {

/// The member set of `runs` as maximal arithmetic progressions, in
/// ascending order: consecutive run instances that continue one
/// progression (a single member, or the same stride) come out as one run,
/// whose `offset` is the absolute first member. No two consecutive
/// results together form one progression. Walks every window.
std::vector<mapping::IndexRun> stretches_of(const mapping::IndexRuns& runs);

/// The flat stretch list of `rank`'s owned set in local order: outer
/// dimensions member by member, the innermost as stretches_of per row.
std::vector<mapping::OwnedRun> owned_stretches(
    const mapping::ConcreteLayout& layout, int rank);

/// The flat segment list of `transfer` (the expansion compile_transfer
/// must reproduce): every window of every dimension is decomposed and
/// pushed through the coalescing rule one segment at a time.
std::vector<redist::CopySegment> flat_segments(
    const redist::TransferV2& transfer,
    std::span<const mapping::IndexRuns> src_owned,
    std::span<const mapping::IndexRuns> dst_owned);

/// Σ value·weight(global) over every stretch of `prog` in `local`, one
/// runtime::weight() per element.
std::uint64_t fold_per_element(const mapping::OwnedProgram& prog,
                               const double* local);

/// Stamps every stretch of `prog` in `local`, one runtime::stamped() per
/// element.
void stamp_per_element(const mapping::OwnedProgram& prog, double* local,
                       std::uint64_t counter);

/// Whether every stretch of `prog` in `local` holds `expected`'s values,
/// testing each element against stamped() inside the clipped window and
/// 0 outside it.
bool matches_per_element(const mapping::OwnedProgram& prog,
                         const double* local, const mapping::Shape& shape,
                         const runtime::ExpectedValues& expected);

/// Validates (net::check_outboxes) and routes one superstep of outboxes
/// into per-rank inboxes, in deterministic (src, emission) order. Moves
/// the messages and charges nothing.
std::vector<std::vector<net::Message>> route_superstep(
    std::vector<std::vector<net::Message>> outboxes, int ranks);

/// The reference for ProcBackend::exchange, in process: copies every
/// payload of `table` from its out-slot of `arena` to its in-slot and
/// returns each rank's in-slot descriptors in (src, emission) order.
exec::Inboxes route_slots(std::span<const exec::ArenaMessage> table,
                          int ranks, std::span<double> arena);

/// A net::Message superstep on the proc backend (validated like
/// route_superstep): copies each outbox payload into an out-slot of the
/// backend's arena, runs the arena exchange, and copies each filled
/// in-slot back out into a message, in the exchange's (src, emission)
/// order.
std::vector<std::vector<net::Message>> exchange_messages(
    exec::ProcBackend& backend,
    const std::vector<std::vector<net::Message>>& outboxes);

}  // namespace hpfc::testing
