#include "redist/fused.hpp"

#include <map>
#include <utility>

#include "support/check.hpp"

namespace hpfc::redist {

FusedExchange build_fused_exchange(
    int ranks, std::span<const std::span<const Kernel>> members) {
  FusedExchange fused;
  fused.by_src.resize(static_cast<std::size_t>(ranks));
  fused.by_dst.resize(static_cast<std::size_t>(ranks));
  fused.local_by_rank.resize(static_cast<std::size_t>(ranks));

  // Off-rank pairs share one combined message; the map keeps the message
  // table deterministic in (src, dst) order while frames append in member
  // order as the member walk below encounters each pair.
  std::map<std::pair<int, int>, std::size_t> pair_message;
  const auto append_frame = [&](std::size_t msg, int m, int p,
                                const SegmentProgram& tp) {
    FusedMessage& fm = fused.messages[msg];
    fm.frames.push_back({m, p, fm.elements, tp.elements});
    fm.elements += tp.elements;
    fm.segments = narrow<int>(static_cast<std::uint64_t>(fm.segments) +
                              tp.segment_count());
  };

  for (std::size_t m = 0; m < members.size(); ++m) {
    for (std::size_t p = 0; p < members[m].size(); ++p) {
      const SegmentProgram& tp = members[m][p].program();
      HPFC_ASSERT_MSG(tp.src >= 0 && tp.src < ranks && tp.dst >= 0 &&
                          tp.dst < ranks,
                      "fused member transfer outside the machine");
      if (tp.src == tp.dst) {
        fused.local_by_rank[static_cast<std::size_t>(tp.src)].push_back(
            {static_cast<int>(m), static_cast<int>(p)});
        continue;
      }
      const auto [it, inserted] = pair_message.try_emplace(
          {tp.src, tp.dst}, fused.messages.size());
      if (inserted) fused.messages.push_back({tp.src, tp.dst, 0, 0, {}});
      append_frame(it->second, static_cast<int>(m), static_cast<int>(p), tp);
    }
  }

  // Count first so every index list is reserved exactly once.
  std::vector<std::size_t> sends(static_cast<std::size_t>(ranks), 0);
  std::vector<std::size_t> receives(static_cast<std::size_t>(ranks), 0);
  for (const FusedMessage& fm : fused.messages) {
    ++sends[static_cast<std::size_t>(fm.src)];
    ++receives[static_cast<std::size_t>(fm.dst)];
  }
  for (std::size_t r = 0; r < sends.size(); ++r) {
    fused.by_src[r].reserve(sends[r]);
    fused.by_dst[r].reserve(receives[r]);
  }
  for (std::size_t i = 0; i < fused.messages.size(); ++i)
    fused.by_src[static_cast<std::size_t>(fused.messages[i].src)].push_back(
        static_cast<int>(i));
  for (const auto& emitted : fused.by_src)
    for (const int i : emitted)
      fused.by_dst[static_cast<std::size_t>(
                       fused.messages[static_cast<std::size_t>(i)].dst)]
          .push_back(i);
  return fused;
}

}  // namespace hpfc::redist
