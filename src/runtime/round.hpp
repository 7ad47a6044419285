// One fused remapping round executed on a backend: the data movement of
// every copy a remapping vertex fires, as built by
// redist::build_fused_exchange over the members' specialized kernels.
//
// A round moves its data one of two ways, chosen in FusedRound::run():
//   pull     (seq, thread) all ranks share one address space, so a round
//            is one rank step: each destination rank runs its local
//            fast-path units, then copies every incoming frame with
//            Kernel::copy straight out of the source rank's storage. No
//            payload is staged and no net::Message is built.
//   messages (proc) payloads really cross sockets: pack() each combined
//            message into a pooled payload, ProcBackend::exchange(), then
//            unpack() by frame. unpack() first checks every inbox against
//            the message table and refuses a round whose inboxes differ
//            before it touches destination storage.
// A round charges nothing: the machine charges its traffic table — one
// net::Flow per message and per local fast-path unit — with
// net::account_flows, so both transports charge byte-identical NetStats,
// and both leave identical destination storage.
#pragma once

#include <cstdint>
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

  /// Moves the round's data on `backend`: the pull step in process, the
  /// message path on proc. The one place the transport is chosen.
  RoundTimes run(exec::Backend& backend);
  /// The in-process pull step (seq and thread).
  void pull(exec::Backend& backend) const;
  /// The message path's first phase: runs each rank's local units and
  /// packs each of its messages into a pooled payload, tagged with its
  /// message-table index. Returns the outboxes.
  std::vector<std::vector<net::Message>> pack(exec::Backend& backend);
  /// The message path's last phase, over the routed `inboxes`: checks
  /// every inbox against the message table in by_dst order (the source,
  /// destination, tag, segments and payload length of each message, and
  /// that none is missing or extra), raising an InternalError naming the
  /// copy group and the (src, dst) pair before any destination element
  /// changes; then unpacks every frame and recycles the payloads.
  void unpack(exec::Backend& backend,
              std::vector<std::vector<net::Message>> inboxes);

  [[nodiscard]] const redist::FusedExchange& exchange() const {
    return exchange_;
  }

  /// The traffic table the machine charges for every run: one src == dst
  /// Flow per local fast-path unit, in rank order, then one Flow per
  /// off-rank message, in message-table order.
  [[nodiscard]] std::span<const net::Flow> traffic() const {
    return traffic_;
  }

  // The round's counters, fixed by its framing: the local fast-path units
  // with their elements, the remote payload elements, and the kernel
  // dispatches (one per local unit or frame: a transfer's dispatch is
  // booked at its producing site, never again at its unpack).
  [[nodiscard]] std::uint64_t local_copies() const { return local_copies_; }
  [[nodiscard]] std::uint64_t local_elements() const {
    return local_elements_;
  }
  [[nodiscard]] std::uint64_t remote_elements() const {
    return remote_elements_;
  }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

 private:
  [[nodiscard]] const redist::Kernel& kernel(int member, int k) const {
    return members_[static_cast<std::size_t>(member)]
        .kernels[static_cast<std::size_t>(k)];
  }
  /// Runs rank r's local fast-path units.
  void copy_local(int r) const;
  /// Raises an InternalError when rank r's routed inbox differs from the
  /// messages the table delivers to it.
  void check_inbox(int r, const std::vector<net::Message>& inbox) const;

  std::vector<RoundMember> members_;
  int group_ = -1;
  redist::FusedExchange exchange_;
  std::vector<net::Flow> traffic_;
  std::uint64_t local_copies_ = 0;
  std::uint64_t local_elements_ = 0;
  std::uint64_t remote_elements_ = 0;
  std::uint64_t dispatches_ = 0;
  /// Message path only, filled on its first pack: payload buffers per
  /// message-table entry and the recycled mailbox skeleton.
  std::vector<std::vector<double>> payload_pool_;
  std::vector<std::vector<net::Message>> mailbox_pool_;
};

}  // namespace hpfc::runtime
