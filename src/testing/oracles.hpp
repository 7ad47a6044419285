// The oracles the tests and benches check the production paths against,
// compiled into the hpfc_testing library, which no production executable
// links. The runtime compiles a rank's ownership and a transfer's copy
// list in closed form (mapping::ConcreteLayout::owned_program,
// redist::build_runs, redist::compile_transfer) and executes it through
// specialized kernels (redist/kernelgen.hpp); the references here
// enumerate the same sets element by element or window by window:
//  - the element-list ownership queries, built from the layout's owner
//    rules element by element (never from owned_index_runs, which they
//    check);
//  - the sorted-list redistribution plan (build) and the materialized
//    form of a closed-form plan;
//  - the segment walkers (pack, pack_into, unpack, copy_local), which
//    interpret a SegmentProgram segment by segment;
//  - the flat window walks every periodic ownership and segment program
//    must expand to;
//  - the per-element value loops the value kernels of
//    runtime/expected.hpp must reproduce;
//  - route_superstep, the reference router of net::Message supersteps,
//    and route_slots its arena form, which the runtime's arena path is
//    compared against in process; exchange_messages adapts the proc
//    backend's arena exchange to net::Message supersteps so the two
//    routers can be compared message by message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "exec/proc_backend.hpp"
#include "mapping/layout.hpp"
#include "mapping/runs.hpp"
#include "net/network.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "runtime/expected.hpp"

namespace hpfc::net {

/// One message of a reference superstep: a payload of doubles from `src`
/// to `dst`, the unit the reference routers move. The runtime moves
/// rounds through the backends' arena and storage, never as Messages.
struct Message {
  Rank src = 0;
  Rank dst = 0;
  int tag = 0;
  std::vector<double> payload;
  /// Number of bulk-copy segments the sender packed the payload with
  /// (pack granularity; 0 when the producer does not track segments).
  int segments = 0;

  [[nodiscard]] std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(payload.size()) * sizeof(double);
  }
};

}  // namespace hpfc::net

namespace hpfc::testing {

using mapping::ConcreteLayout;
using mapping::Extent;
using mapping::Index;

// ---- ownership by element lists ----------------------------------------

/// A random normalized layout of `array_shape` for layout-level property
/// tests: a 1-D or 2-D processor grid (total ranks within [1, max_procs])
/// whose grid dimensions draw from replicated / constant / axis sources
/// (axis with strides in {1, 2, -1, -2} and small offsets) and block /
/// cyclic(k) distribution formats.
ConcreteLayout random_layout(std::mt19937& rng,
                             const mapping::Shape& array_shape,
                             int max_procs = 8);

/// Per-array-dimension sorted index lists whose cartesian product is the
/// element set owned by `rank`, found by testing every index against the
/// layout's owner rules (owners() / coord_of_template). When
/// `for_sending` is true, replicated grid dimensions are restricted to
/// coordinate 0 so that each element has exactly one sending owner. A
/// rank owning nothing gets all-empty lists.
std::vector<std::vector<Index>> owned_index_lists(const ConcreteLayout& layout,
                                                  int rank,
                                                  bool for_sending = false);

/// Whether `rank` owns the element `global`.
bool owns(const ConcreteLayout& layout, int rank,
          std::span<const Index> global);
/// All ranks owning `global` (more than one under replication).
std::vector<int> owners_of(const ConcreteLayout& layout,
                           std::span<const Index> global);
/// Lowest-numbered owning rank.
int primary_owner(const ConcreteLayout& layout, std::span<const Index> global);

/// Row-major position of `global` within the product of `lists`
/// (as returned by owned_index_lists), or -1 when not a member.
Index position_in_lists(const std::vector<std::vector<Index>>& lists,
                        std::span<const Index> global);
/// Row-major position of `global` within rank's owned product set, or -1.
Index local_position(const ConcreteLayout& layout, int rank,
                     std::span<const Index> global);

/// Calls fn(global_index, local_position) for each element owned by
/// `rank`, in local (row-major product) order.
template <typename Fn>
void for_each_owned(const ConcreteLayout& layout, int rank, Fn&& fn) {
  const auto lists = owned_index_lists(layout, rank);
  Extent count = 1;
  for (const auto& list : lists) count *= static_cast<Extent>(list.size());
  if (count == 0) return;
  const std::size_t dims = lists.size();
  std::vector<std::size_t> pos(dims, 0);
  std::vector<Index> global(dims, 0);
  for (Extent local = 0; local < count; ++local) {
    for (std::size_t d = 0; d < dims; ++d) global[d] = lists[d][pos[d]];
    fn(std::span<const Index>(global), local);
    for (std::size_t d = dims; d-- > 0;) {
      if (++pos[d] < lists[d].size()) break;
      pos[d] = 0;
    }
  }
}

// ---- redistribution plans ------------------------------------------------

/// One source->destination transfer manifest. Elements are the cartesian
/// product of `dim_indices`, enumerated in row-major product order (the
/// shared pack/unpack order of both end points).
struct Transfer {
  int src = 0;
  int dst = 0;
  std::vector<std::vector<Index>> dim_indices;

  [[nodiscard]] Extent count() const;
};

struct RedistPlan {
  std::vector<Transfer> transfers;

  [[nodiscard]] Extent total_elements() const;
  /// Number of off-rank transfers (src != dst).
  [[nodiscard]] int remote_transfers() const;
};

/// Communication sets via explicit sorted-list intersection of the two
/// layouts' owned_index_lists: O(P_s * P_d * N).
RedistPlan build(const ConcreteLayout& from, const ConcreteLayout& to);

/// `plan` with every dimension's run set listed member by member.
RedistPlan materialize(const redist::RedistPlanV2& plan);

// ---- periodic programs ---------------------------------------------------

/// The expanded segment list of `program`, in payload order.
std::vector<redist::CopySegment> expand(const redist::SegmentProgram& program);
/// The expanded stretch list of `program`, in local order.
std::vector<mapping::OwnedRun> expand(const mapping::OwnedProgram& program);

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

// ---- segment walkers ------------------------------------------------------

/// Packs the program's elements from the source rank's local storage into
/// `payload` (sized up front, then bulk-copied).
void pack(const redist::SegmentProgram& program,
          std::span<const double> src_local, std::vector<double>& payload);

/// Packs into a caller-provided window of exactly `program.elements`
/// doubles, segment by segment.
void pack_into(const redist::SegmentProgram& program,
               std::span<const double> src_local, std::span<double> out);

/// Scatters `payload` into the destination rank's local storage.
void unpack(const redist::SegmentProgram& program,
            std::span<const double> payload, std::span<double> dst_local);

/// Executes a program as direct strided copies between the two local
/// storages, without a payload. Equivalent to pack() into a scratch
/// buffer followed by unpack(); the storages must not alias.
void copy_local(const redist::SegmentProgram& program,
                std::span<const double> src_local,
                std::span<double> dst_local);

// ---- routers -------------------------------------------------------------

/// Validates one superstep's outboxes — one per rank, every message's src
/// equal to its outbox's rank and its dst in [0, ranks) — and returns how
/// many messages each rank receives. Both message routers run this check.
std::vector<std::size_t> check_outboxes(
    const std::vector<std::vector<net::Message>>& outboxes, int ranks);

/// Validates (check_outboxes) and routes one superstep of outboxes
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
