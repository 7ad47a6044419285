// Superstep accounting for the simulated machine.
//
// The paper's runtime executes remapping communication on a distributed-
// memory machine; no such machine (nor MPI) is available here, so the
// machine is simulated: P ranks with per-rank memories move data in BSP
// supersteps through an exec::Backend. The runtime::Machine charges every
// superstep from the round's traffic table with account_flows — the one
// place NetStats are charged — so the network is *exact* about which bytes
// move where (the redistribution communication sets are executed for real)
// and charges an alpha-beta cost model for time; benchmark comparisons
// (naive vs optimized remappings) reproduce the communication-volume shape
// the paper argues about.
//
// Self-flows (src == dst) model local copies: they are counted separately
// and cost no network time.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/cost_model.hpp"

namespace hpfc::net {

using Rank = int;

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
  /// cache (one per SegmentProgram when a plan slot compiles, at most once
  /// per slot and run — see docs/kernels.md).
  std::uint64_t specialized_kernels = 0;
  /// Transfers executed through a specialized kernel, counted once per
  /// transfer at the producing site (pack or local copy), so the count
  /// is invariant across the execution backends.
  std::uint64_t specialized_dispatches = 0;
  /// Plan-slot compilations that found their (from, to) layout pair's
  /// plan already in the runtime's plan cache (one lookup per plan-slot
  /// compile, counted at the producing site on the controlling thread,
  /// so the count is invariant across backends).
  std::uint64_t plan_cache_hits = 0;
  /// Plan-slot compilations that found no cached plan for their layout
  /// pair (each is followed by one build_runs).
  std::uint64_t plan_cache_misses = 0;
  /// Plan instances built by build_runs — one per cache miss. (The name
  /// predates the single-level cache; reports keep it.)
  std::uint64_t symbolic_instantiations = 0;
  double sim_time = 0.0;  ///< seconds under the cost model

  friend bool operator==(const NetStats&, const NetStats&) = default;
  [[nodiscard]] std::string summary() const;
};

/// One transfer of a superstep's traffic table: what the superstep charges
/// for one message or local copy, without its payload.
struct Flow {
  Rank src = 0;
  Rank dst = 0;
  std::uint64_t bytes = 0;
  std::uint64_t segments = 0;
};

/// Accounts one superstep from its traffic table into `stats`: each flow's
/// counters (a src == dst flow is a local copy), then one BSP step of the
/// alpha-beta clock — the busiest rank's send+receive cost over the
/// off-rank flows. The order of `flows` does not change the result.
void account_flows(NetStats& stats, const CostModel& cost, int ranks,
                   std::span<const Flow> flows);

}  // namespace hpfc::net
