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

std::vector<std::size_t> check_outboxes(
    const std::vector<std::vector<Message>>& outboxes, int ranks) {
  HPFC_ASSERT(static_cast<int>(outboxes.size()) == ranks);
  std::vector<std::size_t> counts(static_cast<std::size_t>(ranks), 0);
  for (int src = 0; src < ranks; ++src) {
    for (const auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      HPFC_ASSERT_MSG(msg.src == src, "message src must match its outbox");
      HPFC_ASSERT_MSG(msg.dst >= 0 && msg.dst < ranks, "bad destination");
      ++counts[static_cast<std::size_t>(msg.dst)];
    }
  }
  return counts;
}

std::vector<std::vector<Message>> route_superstep(
    std::vector<std::vector<Message>> outboxes, int ranks) {
  // Count first so every inbox is reserved exactly once (no growth
  // reallocations while routing).
  const auto counts = check_outboxes(outboxes, ranks);
  std::vector<std::vector<Message>> inboxes(static_cast<std::size_t>(ranks));
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

namespace {

/// One BSP step of the alpha-beta clock: each flow's counters, then the
/// busiest rank's send+receive cost. `for_each_flow(add)` calls
/// add(src, dst, bytes, segments) once per delivered message. The only
/// copy of the superstep arithmetic, so every accounting path charges
/// byte-identical NetStats.
template <typename ForEachFlow>
void charge_superstep(NetStats& stats, const CostModel& cost, int ranks,
                      ForEachFlow&& for_each_flow) {
  // Per-rank accounting for the superstep clock (one scratch vector).
  struct RankLoad {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<RankLoad> load(static_cast<std::size_t>(ranks));

  for_each_flow([&](Rank src, Rank dst, std::uint64_t nbytes,
                    std::uint64_t segments) {
    HPFC_ASSERT_MSG(src >= 0 && src < ranks && dst >= 0 && dst < ranks,
                    "flow outside the machine");
    stats.segments += segments;
    if (dst == src) {
      stats.local_copies += 1;
      stats.local_bytes += nbytes;
      return;
    }
    stats.messages += 1;
    stats.bytes += nbytes;
    load[static_cast<std::size_t>(src)].msgs += 1;
    load[static_cast<std::size_t>(src)].bytes += nbytes;
    load[static_cast<std::size_t>(dst)].msgs += 1;
    load[static_cast<std::size_t>(dst)].bytes += nbytes;
  });

  double step_time = 0.0;
  for (const RankLoad& rank : load)
    step_time = std::max(step_time, cost.message_time(rank.msgs, rank.bytes));
  stats.sim_time += step_time;
  stats.supersteps += 1;
}

}  // namespace

void account_superstep(NetStats& stats, const CostModel& cost,
                       const std::vector<std::vector<Message>>& inboxes) {
  charge_superstep(stats, cost, static_cast<int>(inboxes.size()),
                   [&](const auto& add) {
                     for (const auto& inbox : inboxes)
                       for (const auto& msg : inbox)
                         add(msg.src, msg.dst, msg.bytes(),
                             static_cast<std::uint64_t>(msg.segments));
                   });
}

void account_flows(NetStats& stats, const CostModel& cost, int ranks,
                   std::span<const Flow> flows) {
  charge_superstep(stats, cost, ranks, [&](const auto& add) {
    for (const Flow& flow : flows)
      add(flow.src, flow.dst, flow.bytes, flow.segments);
  });
}

}  // namespace hpfc::net
