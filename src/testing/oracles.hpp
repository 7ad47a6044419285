// Flat reference walks for the periodic programs. The runtime compiles a
// rank's ownership and a transfer's copy list in closed form
// (mapping::ConcreteLayout::owned_program, redist::compile_transfer); the
// walks here enumerate the same stretches one period window at a time,
// so the property tests can assert that every periodic program expands
// to exactly the flat list. The per-element value loops are the
// definitions the value kernels of runtime/expected.hpp must reproduce.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/layout.hpp"
#include "mapping/runs.hpp"
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

}  // namespace hpfc::testing
