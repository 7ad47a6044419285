// One fused remapping round executed on a backend: the data movement of
// every copy a remapping vertex fires, as built by
// redist::build_fused_exchange over the members' specialized kernels.
//
// A round moves its data one of two ways, chosen in FusedRound::run():
//   pull     (seq, thread) all ranks share one address space, so a round
//            is one rank step: each destination rank runs its local
//            fast-path units, then copies every incoming frame with
//            Kernel::copy straight out of the source rank's storage. No
//            payload is staged and no net::Message is built; the
//            backend charges the round's precomputed traffic table
//            (Backend::account_round).
//   messages (proc) payloads really cross sockets: pack each combined
//            message into a pooled payload, exchange(), unpack by frame.
//            The NetStats the exchange charged are checked against the
//            traffic table.
// Both charge byte-identical NetStats and leave identical destination
// storage.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "exec/backend.hpp"
#include "net/network.hpp"
#include "redist/fused.hpp"
#include "redist/kernelgen.hpp"

namespace hpfc::runtime {

/// Per-rank local storage of one array version, indexed by layout rank.
using RankLocals = std::vector<std::vector<double>>;

/// One member copy of a round: its per-pair kernels and the storage of
/// its source and destination versions. The pointers must stay valid
/// (and the outer vectors unresized) for as long as the round runs.
struct RoundMember {
  std::span<const redist::Kernel> kernels;
  const RankLocals* src = nullptr;
  RankLocals* dst = nullptr;
};

/// Host wall time of one round's phases. A pull round is one step,
/// booked as pack_ms.
struct RoundTimes {
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;
};

class FusedRound {
 public:
  /// Builds the round's framing and traffic table over `members` for a
  /// machine of `ranks` ranks. `group` is the codegen copy group the round
  /// belongs to (named by diagnostics). Asserts that no member's
  /// destination storage is a member's source: a pull step writes each
  /// destination piece while other ranks read the sources.
  FusedRound(int ranks, std::vector<RoundMember> members, int group);

  /// Moves the round's data on `backend` and charges its NetStats: the
  /// pull step in process, the message path on proc. The one place the
  /// transport is chosen.
  RoundTimes run(exec::Backend& backend);
  /// The in-process pull step (seq and thread).
  RoundTimes pull(exec::Backend& backend);
  /// pack -> exchange() -> unpack through pooled payloads. Raises an
  /// InternalError naming the copy group when the exchange charged other
  /// NetStats than the traffic table.
  RoundTimes send(exec::Backend& backend);

  [[nodiscard]] const redist::FusedExchange& exchange() const {
    return exchange_;
  }

  // The round's counters, fixed by its framing: the local fast-path units
  // with their segments and elements, the remote payload elements, and
  // the kernel dispatches (one per local unit or frame: a transfer's
  // dispatch is booked at its producing site, never again at its unpack).
  [[nodiscard]] std::uint64_t local_copies() const { return local_copies_; }
  [[nodiscard]] std::uint64_t local_elements() const {
    return local_elements_;
  }
  [[nodiscard]] std::uint64_t remote_elements() const {
    return remote_elements_;
  }

 private:
  [[nodiscard]] const redist::Kernel& kernel(int member, int k) const {
    return members_[static_cast<std::size_t>(member)]
        .kernels[static_cast<std::size_t>(k)];
  }
  /// Runs rank r's local fast-path units.
  void copy_local(int r) const;
  /// Charges what both transports charge besides the superstep.
  void account_counters(exec::Backend& backend) const;

  std::vector<RoundMember> members_;
  int group_ = -1;
  redist::FusedExchange exchange_;
  /// The traffic table: one Flow per off-rank message, in message-table
  /// order.
  std::vector<net::Flow> traffic_;
  /// What the superstep of traffic_ charges from zero NetStats, computed
  /// on the first send (the message-path check's expectation).
  std::optional<net::NetStats> step_charge_;
  std::uint64_t local_copies_ = 0;
  std::uint64_t local_segments_ = 0;
  std::uint64_t local_elements_ = 0;
  std::uint64_t remote_elements_ = 0;
  std::uint64_t dispatches_ = 0;
  /// Message path only, filled on its first send: payload buffers per
  /// message-table entry and the recycled mailbox skeleton.
  std::vector<std::vector<double>> payload_pool_;
  std::vector<std::vector<net::Message>> mailbox_pool_;
};

}  // namespace hpfc::runtime
