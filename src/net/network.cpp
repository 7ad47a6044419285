#include "net/network.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

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

void account_flows(NetStats& stats, const CostModel& cost, int ranks,
                   std::span<const Flow> flows) {
  // Per-rank accounting for the superstep clock (one scratch vector).
  struct RankLoad {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<RankLoad> load(static_cast<std::size_t>(ranks));

  for (const Flow& flow : flows) {
    HPFC_ASSERT_MSG(flow.src >= 0 && flow.src < ranks && flow.dst >= 0 &&
                        flow.dst < ranks,
                    "flow outside the machine");
    stats.segments += flow.segments;
    if (flow.dst == flow.src) {
      stats.local_copies += 1;
      stats.local_bytes += flow.bytes;
      continue;
    }
    stats.messages += 1;
    stats.bytes += flow.bytes;
    load[static_cast<std::size_t>(flow.src)].msgs += 1;
    load[static_cast<std::size_t>(flow.src)].bytes += flow.bytes;
    load[static_cast<std::size_t>(flow.dst)].msgs += 1;
    load[static_cast<std::size_t>(flow.dst)].bytes += flow.bytes;
  }

  double step_time = 0.0;
  for (const RankLoad& rank : load)
    step_time = std::max(step_time, cost.message_time(rank.msgs, rank.bytes));
  stats.sim_time += step_time;
  stats.supersteps += 1;
}

}  // namespace hpfc::net
