// The runtime plan cache: one concrete redistribution plan per (from, to)
// layout pair, built once with redist::build_runs and shared by every copy
// site that moves data between the same two layouts — across arrays,
// versions and live regions (regions are applied per site when segments
// are compiled, not in the plan). A hit is one map lookup.
//
// Accounting contract (the plan-slot eviction fix): each cached instance
// is charged once however many plan slots share it, and is released — and
// dropped from this cache — only when the last referencing slot is
// evicted. acquire() and release() are reference-counted to support
// exactly that; see runtime/machine.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>

#include "redist/commsets.hpp"

namespace hpfc::redist {

/// One cached plan plus its accounted heap footprint. Immutable once built
/// — the runtime copies transfers before region restriction because
/// instances are shared across plan slots.
struct PlanInstance {
  RedistPlanV2 plan;
  std::uint64_t bytes = 0;  ///< heap footprint of the transfer run sets
};

class PlanCache {
 public:
  struct Acquired {
    /// Stable until the matching last release().
    const PlanInstance* instance = nullptr;
    bool hit = false;  ///< false: the plan was built by this call
  };

  /// Takes one reference on the (from, to) plan, building it on a miss.
  Acquired acquire(const ConcreteLayout& from, const ConcreteLayout& to);

  /// Drops one reference; returns true — and erases the entry, so a later
  /// acquire rebuilds it — when that was the last one.
  bool release(const ConcreteLayout& from, const ConcreteLayout& to);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    PlanInstance instance;
    int refs = 0;
  };
  std::map<std::tuple<ConcreteLayout, ConcreteLayout>, Entry, std::less<>>
      entries_;
};

/// Accounted heap footprint of a concrete plan's run sets (the bytes a
/// cached PlanInstance charges against the runtime memory limit).
[[nodiscard]] std::uint64_t plan_footprint_bytes(const RedistPlanV2& plan);

}  // namespace hpfc::redist
