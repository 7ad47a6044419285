// Communication sets for array redistribution: given two ConcreteLayouts of
// the same array, compute for every (source rank, destination rank) pair
// the exact element set to transfer. Because rank ownership is a cartesian
// product of per-array-dimension index sets under both layouts, each
// pairwise set is the product of per-dimension intersections.
//
// build_runs() intersects closed-form interval runs per dimension in
// O(runs) via lcm-window arithmetic (the efficient method of the paper's
// reference [19]), producing a RedistPlanV2 whose transfers stay
// symbolic. The tests check it against the sorted-list oracle
// testing::build (src/testing/oracles.hpp): identical element sets in
// identical pack order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"

namespace hpfc::redist {

using mapping::ConcreteLayout;
using mapping::Extent;
using mapping::Index;
using mapping::IndexRuns;

/// One source->destination transfer in closed form: the element set is the
/// cartesian product of per-dimension interval-run sets, enumerated in
/// row-major product order (each dimension ascending — the pack order of
/// both end points).
struct TransferV2 {
  int src = 0;
  int dst = 0;
  std::vector<IndexRuns> dim_runs;

  [[nodiscard]] Extent count() const;
  /// Restricts every dimension to its live-region slice; returns false
  /// when the restriction empties the transfer.
  bool restrict_to(const std::vector<std::pair<Index, Index>>& region);
};

struct RedistPlanV2 {
  std::vector<TransferV2> transfers;

  [[nodiscard]] Extent total_elements() const;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(total_elements()) * sizeof(double);
  }
  [[nodiscard]] int remote_transfers() const;
  [[nodiscard]] std::string summary() const;
};

/// Efficient communication sets: per-dimension interval-run intersection
/// of the two block-cyclic ownerships, O(runs) per (src, dst) pair via
/// lcm-window arithmetic — plan construction never scales with the array
/// extent for block/cyclic layouts.
RedistPlanV2 build_runs(const ConcreteLayout& from, const ConcreteLayout& to);

}  // namespace hpfc::redist
