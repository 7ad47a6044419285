#include "net/network.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::net {

std::string NetStats::summary() const {
  std::ostringstream os;
  os << messages << " msgs, " << format_bytes(bytes) << ", "
     << local_copies << " local copies (" << format_bytes(local_bytes)
     << "), " << segments << " segs, " << supersteps << " steps, "
     << fused_copies << " fused, " << specialized_dispatches << " spec, "
     << sim_time * 1e3 << " ms";
  return os.str();
}

std::vector<std::vector<Message>> route_superstep(
    std::vector<std::vector<Message>> outboxes, int ranks) {
  HPFC_ASSERT(static_cast<int>(outboxes.size()) == ranks);
  std::vector<std::vector<Message>> inboxes(static_cast<std::size_t>(ranks));
  // Count first so every inbox is reserved exactly once (no growth
  // reallocations while routing).
  std::vector<std::size_t> counts(static_cast<std::size_t>(ranks), 0);
  for (int src = 0; src < ranks; ++src) {
    for (const auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      HPFC_ASSERT_MSG(msg.src == src, "message src must match its outbox");
      HPFC_ASSERT_MSG(msg.dst >= 0 && msg.dst < ranks, "bad destination");
      ++counts[static_cast<std::size_t>(msg.dst)];
    }
  }
  for (int r = 0; r < ranks; ++r)
    inboxes[static_cast<std::size_t>(r)].reserve(
        counts[static_cast<std::size_t>(r)]);
  // Deterministic receive order: by source rank, then emission order —
  // guaranteed by this fill order.
  for (int src = 0; src < ranks; ++src) {
    for (auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      inboxes[static_cast<std::size_t>(msg.dst)].push_back(std::move(msg));
    }
  }
  return inboxes;
}

void account_superstep(NetStats& stats, const CostModel& cost,
                       const std::vector<std::vector<Message>>& inboxes) {
  const int ranks = static_cast<int>(inboxes.size());
  // Per-rank accounting for the superstep clock (one scratch vector).
  struct RankLoad {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<RankLoad> load(static_cast<std::size_t>(ranks));

  for (const auto& inbox : inboxes) {
    for (const auto& msg : inbox) {
      const std::uint64_t nbytes = msg.bytes();
      stats.segments += static_cast<std::uint64_t>(msg.segments);
      if (msg.dst == msg.src) {
        stats.local_copies += 1;
        stats.local_bytes += nbytes;
      } else {
        stats.messages += 1;
        stats.bytes += nbytes;
        load[static_cast<std::size_t>(msg.src)].msgs += 1;
        load[static_cast<std::size_t>(msg.src)].bytes += nbytes;
        load[static_cast<std::size_t>(msg.dst)].msgs += 1;
        load[static_cast<std::size_t>(msg.dst)].bytes += nbytes;
      }
    }
  }

  double step_time = 0.0;
  for (int r = 0; r < ranks; ++r) {
    step_time = std::max(
        step_time, cost.message_time(load[static_cast<std::size_t>(r)].msgs,
                                     load[static_cast<std::size_t>(r)].bytes));
  }
  stats.sim_time += step_time;
  stats.supersteps += 1;
}

}  // namespace hpfc::net
