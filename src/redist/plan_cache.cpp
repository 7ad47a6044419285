#include "redist/plan_cache.hpp"

namespace hpfc::redist {

PlanCache::Acquired PlanCache::acquire(const ConcreteLayout& from,
                                       const ConcreteLayout& to) {
  auto it = entries_.lower_bound(std::tie(from, to));
  const bool hit = it != entries_.end() && it->first == std::tie(from, to);
  if (!hit)
    it = entries_.emplace_hint(it, std::tuple(from, to), build_runs(from, to));
  return {&it->second, hit};
}

}  // namespace hpfc::redist
