#include "redist/plan_cache.hpp"

#include "support/check.hpp"

namespace hpfc::redist {

PlanCache::Acquired PlanCache::acquire(const ConcreteLayout& from,
                                       const ConcreteLayout& to) {
  auto it = entries_.lower_bound(std::tie(from, to));
  const bool hit = it != entries_.end() && it->first == std::tie(from, to);
  if (!hit) {
    it = entries_.emplace_hint(it, std::tuple(from, to), Entry{});
    it->second.instance.plan = build_runs(from, to);
    it->second.instance.bytes = plan_footprint_bytes(it->second.instance.plan);
  }
  ++it->second.refs;
  return {&it->second.instance, hit};
}

bool PlanCache::release(const ConcreteLayout& from, const ConcreteLayout& to) {
  const auto it = entries_.find(std::tie(from, to));
  HPFC_ASSERT_MSG(it != entries_.end(), "released a plan never acquired");
  if (--it->second.refs > 0) return false;
  entries_.erase(it);
  return true;
}

std::uint64_t plan_footprint_bytes(const RedistPlanV2& plan) {
  std::uint64_t bytes = plan.transfers.capacity() * sizeof(TransferV2);
  for (const TransferV2& t : plan.transfers) {
    bytes += t.dim_runs.capacity() * sizeof(IndexRuns);
    for (const IndexRuns& r : t.dim_runs)
      bytes += r.runs().capacity() * sizeof(mapping::IndexRun);
  }
  return bytes;
}

}  // namespace hpfc::redist
