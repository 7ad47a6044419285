#include "redist/commsets.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace hpfc::redist {

namespace {

std::vector<Index> intersect_sorted(const std::vector<Index>& a,
                                    const std::vector<Index>& b) {
  std::vector<Index> result;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  return result;
}

/// A rank owning nothing sends/receives nothing; with dims == 0 (scalar
/// arrays) ownership is decided by the grid-dim checks alone, which the
/// per-dimension sets cannot express — treat the rank as alive, matching
/// the oracle's behavior.
bool alive(const std::vector<std::vector<Index>>& lists) {
  return lists.empty() || !lists.front().empty();
}

bool alive(const std::vector<IndexRuns>& runs) {
  return runs.empty() || !runs.front().empty();
}

}  // namespace

Extent Transfer::count() const {
  Extent product = 1;
  for (const auto& list : dim_indices)
    product *= static_cast<Extent>(list.size());
  return product;
}

Extent RedistPlan::total_elements() const {
  Extent total = 0;
  for (const auto& t : transfers) total += t.count();
  return total;
}

int RedistPlan::remote_transfers() const {
  int count = 0;
  for (const auto& t : transfers)
    if (t.src != t.dst) ++count;
  return count;
}

std::string RedistPlan::summary() const {
  std::ostringstream os;
  os << transfers.size() << " transfers (" << remote_transfers()
     << " remote), " << total_elements() << " elements";
  return os.str();
}

Extent TransferV2::count() const {
  Extent product = 1;
  for (const auto& runs : dim_runs) product *= runs.count();
  return product;
}

bool TransferV2::restrict_to(
    const std::vector<std::pair<Index, Index>>& region) {
  HPFC_ASSERT(region.size() == dim_runs.size());
  for (std::size_t d = 0; d < dim_runs.size(); ++d) {
    dim_runs[d] = dim_runs[d].restrict_to(region[d].first, region[d].second);
    if (dim_runs[d].empty()) return false;
  }
  return true;
}

Transfer TransferV2::materialize() const {
  Transfer transfer;
  transfer.src = src;
  transfer.dst = dst;
  transfer.dim_indices.reserve(dim_runs.size());
  for (const auto& runs : dim_runs)
    transfer.dim_indices.push_back(runs.materialize());
  return transfer;
}

Extent RedistPlanV2::total_elements() const {
  Extent total = 0;
  for (const auto& t : transfers) total += t.count();
  return total;
}

int RedistPlanV2::remote_transfers() const {
  int count = 0;
  for (const auto& t : transfers)
    if (t.src != t.dst) ++count;
  return count;
}

RedistPlan RedistPlanV2::materialize() const {
  RedistPlan plan;
  plan.transfers.reserve(transfers.size());
  for (const auto& t : transfers) plan.transfers.push_back(t.materialize());
  return plan;
}

std::string RedistPlanV2::summary() const {
  std::ostringstream os;
  std::size_t runs = 0;
  for (const auto& t : transfers)
    for (const auto& r : t.dim_runs) runs += r.runs().size();
  os << transfers.size() << " transfers (" << remote_transfers()
     << " remote), " << total_elements() << " elements, " << runs << " runs";
  return os.str();
}

RedistPlan build(const ConcreteLayout& from, const ConcreteLayout& to) {
  HPFC_ASSERT_MSG(from.array_shape() == to.array_shape(),
                  "redistribution requires identical array shapes");
  RedistPlan plan;
  const int dims = from.array_shape().rank();

  // Ownership lists are O(extent) to compute: one pass per endpoint rank,
  // not one per (src, dst) pair.
  std::vector<std::vector<std::vector<Index>>> dst_lists;
  dst_lists.reserve(static_cast<std::size_t>(to.ranks()));
  int alive_dsts = 0;
  for (int dst = 0; dst < to.ranks(); ++dst) {
    dst_lists.push_back(to.owned_index_lists(dst));
    if (alive(dst_lists.back())) ++alive_dsts;
  }
  plan.transfers.reserve(static_cast<std::size_t>(from.ranks()) *
                         static_cast<std::size_t>(alive_dsts));

  for (int src = 0; src < from.ranks(); ++src) {
    const auto src_lists = from.owned_index_lists(src, /*for_sending=*/true);
    if (!alive(src_lists)) continue;
    for (int dst = 0; dst < to.ranks(); ++dst) {
      const auto& dst_list = dst_lists[static_cast<std::size_t>(dst)];
      if (!alive(dst_list)) continue;
      Transfer transfer;
      transfer.src = src;
      transfer.dst = dst;
      transfer.dim_indices.reserve(static_cast<std::size_t>(dims));
      bool empty = false;
      // The pair is dropped as soon as one dimension's intersection is
      // empty — later dimensions are never computed.
      for (int d = 0; d < dims; ++d) {
        auto common = intersect_sorted(src_lists[static_cast<std::size_t>(d)],
                                       dst_list[static_cast<std::size_t>(d)]);
        if (common.empty()) {
          empty = true;
          break;
        }
        transfer.dim_indices.push_back(std::move(common));
      }
      if (!empty) plan.transfers.push_back(std::move(transfer));
    }
  }
  return plan;
}

RedistPlanV2 build_runs(const ConcreteLayout& from, const ConcreteLayout& to) {
  HPFC_ASSERT_MSG(from.array_shape() == to.array_shape(),
                  "redistribution requires identical array shapes");
  RedistPlanV2 plan;
  const int dims = from.array_shape().rank();

  // Ownership run sets are O(runs) to compute: one per endpoint rank, not
  // one per (src, dst) pair.
  std::vector<std::vector<IndexRuns>> dst_runs;
  dst_runs.reserve(static_cast<std::size_t>(to.ranks()));
  int alive_dsts = 0;
  for (int dst = 0; dst < to.ranks(); ++dst) {
    dst_runs.push_back(to.owned_index_runs(dst));
    if (alive(dst_runs.back())) ++alive_dsts;
  }
  plan.transfers.reserve(static_cast<std::size_t>(from.ranks()) *
                         static_cast<std::size_t>(alive_dsts));

  for (int src = 0; src < from.ranks(); ++src) {
    const auto sr = from.owned_index_runs(src, /*for_sending=*/true);
    if (!alive(sr)) continue;
    for (int dst = 0; dst < to.ranks(); ++dst) {
      const auto& dr = dst_runs[static_cast<std::size_t>(dst)];
      if (!alive(dr)) continue;
      TransferV2 transfer;
      transfer.src = src;
      transfer.dst = dst;
      transfer.dim_runs.reserve(static_cast<std::size_t>(dims));
      bool empty = false;
      for (int d = 0; d < dims; ++d) {
        IndexRuns common =
            IndexRuns::intersect(sr[static_cast<std::size_t>(d)],
                                 dr[static_cast<std::size_t>(d)]);
        if (common.empty()) {
          empty = true;
          break;
        }
        transfer.dim_runs.push_back(std::move(common));
      }
      if (!empty) plan.transfers.push_back(std::move(transfer));
    }
  }
  return plan;
}

}  // namespace hpfc::redist
