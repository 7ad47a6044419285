#include "redist/commsets.hpp"

#include <sstream>

#include "support/check.hpp"

namespace hpfc::redist {

namespace {

/// A rank owning nothing sends/receives nothing.
bool alive(const std::vector<IndexRuns>& runs) {
  return !runs.front().empty();
}

}  // namespace

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

std::string RedistPlanV2::summary() const {
  std::ostringstream os;
  std::size_t runs = 0;
  for (const auto& t : transfers)
    for (const auto& r : t.dim_runs) runs += r.runs().size();
  os << transfers.size() << " transfers (" << remote_transfers()
     << " remote), " << total_elements() << " elements, " << runs << " runs";
  return os.str();
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
