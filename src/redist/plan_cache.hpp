// The runtime plan cache: one concrete redistribution plan per (from, to)
// layout pair, built once with redist::build_runs and shared by every copy
// site that moves data between the same two layouts — across arrays,
// versions and live regions (regions are applied per site when segments
// are compiled, not in the plan). A hit is one map lookup.
//
// Cached plans live as long as the cache, which the runtime keeps for the
// whole run: a plan table is O(pattern), never O(n), so the memory limit
// (RunOptions::memory_limit) budgets array storage only and never evicts
// a plan (§5.2 frees array copies).
#pragma once

#include <functional>
#include <map>
#include <tuple>

#include "redist/commsets.hpp"

namespace hpfc::redist {

class PlanCache {
 public:
  struct Acquired {
    /// Immutable and stable for the cache's lifetime. The runtime copies
    /// a transfer before restricting it to a region, because plans are
    /// shared across plan slots.
    const RedistPlanV2* plan = nullptr;
    bool hit = false;  ///< false: the plan was built by this call
  };

  /// Looks up the (from, to) plan, building it on a miss.
  Acquired acquire(const ConcreteLayout& from, const ConcreteLayout& to);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::tuple<ConcreteLayout, ConcreteLayout>, RedistPlanV2,
           std::less<>>
      entries_;
};

}  // namespace hpfc::redist
