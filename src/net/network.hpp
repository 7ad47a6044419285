// Superstep routing and accounting for the simulated machine.
//
// The paper's runtime executes remapping communication on a distributed-
// memory machine; no such machine (nor MPI) is available here, so the
// machine is simulated: P ranks with per-rank memories exchange messages in
// BSP supersteps through an exec::Backend. Every backend routes with
// route_superstep's order and charges account_superstep's counters, so the
// network is *exact* about which bytes move where (the redistribution
// communication sets are executed for real) and charges an alpha-beta cost
// model for time; benchmark comparisons (naive vs optimized remappings)
// reproduce the communication-volume shape the paper argues about.
//
// Self-messages (src == dst) model local copies: they are delivered but are
// counted separately and cost no network time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/cost_model.hpp"
#include "net/message.hpp"

namespace hpfc::net {

struct NetStats {
  std::uint64_t messages = 0;      ///< off-rank messages delivered
  std::uint64_t bytes = 0;         ///< off-rank payload bytes
  std::uint64_t local_copies = 0;  ///< on-rank (src==dst) deliveries
  std::uint64_t local_bytes = 0;
  /// Bulk-copy segments across all delivered payloads (local and remote):
  /// the pack granularity — elements / segments is the mean copy length.
  std::uint64_t segments = 0;
  std::uint64_t supersteps = 0;
  /// Remapping copies whose communication shared one exchange superstep
  /// with at least one other copy (cross-array message aggregation): the
  /// alpha-term savings counter — it stays 0 when every remap vertex
  /// fires a single copy.
  std::uint64_t fused_copies = 0;
  /// Specialized pack/unpack kernels installed by the runtime's plan
  /// cache (one per SegmentProgram when a plan slot compiles; rises again
  /// when an evicted slot recompiles — see docs/kernels.md).
  std::uint64_t specialized_kernels = 0;
  /// Transfers executed through a specialized kernel, counted once per
  /// transfer at the producing site (pack or local copy), so the count
  /// is invariant across the execution backends.
  std::uint64_t specialized_dispatches = 0;
  /// Plan-slot compilations that found their symbolic plan's (N, P)
  /// instance already bound in the runtime's two-level plan cache (one
  /// lookup per plan-slot compile, counted at the producing site on the
  /// controlling thread, so the count is invariant across backends).
  std::uint64_t plan_cache_hits = 0;
  /// Plan-slot compilations that found no bound instance for their
  /// shapes (each is followed by a symbolic instantiation).
  std::uint64_t plan_cache_misses = 0;
  /// Concrete RedistPlanV2 instances built by binding a symbolic plan at
  /// (N, P) — one per cache miss; rises again when a dropped instance is
  /// re-bound after plan-slot eviction.
  std::uint64_t symbolic_instantiations = 0;
  double sim_time = 0.0;  ///< seconds under the cost model

  friend bool operator==(const NetStats&, const NetStats&) = default;
  [[nodiscard]] std::string summary() const;
};

/// Validates and routes one superstep of outboxes into per-rank inboxes,
/// in deterministic (src, emission) order.
std::vector<std::vector<Message>> route_superstep(
    std::vector<std::vector<Message>> outboxes, int ranks);

/// Accounts one already-routed superstep into `stats`: counters plus one
/// BSP step of the alpha-beta clock (the busiest rank's send+receive
/// cost).  Shared by every exec::Backend so their NetStats stay
/// byte-identical however the messages were physically moved.
void account_superstep(NetStats& stats, const CostModel& cost,
                       const std::vector<std::vector<Message>>& inboxes);

}  // namespace hpfc::net
