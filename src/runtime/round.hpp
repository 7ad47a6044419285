// One fused remapping round executed on a backend: the data movement of
// every copy a remapping vertex fires, as built by
// redist::build_fused_exchange over the members' specialized kernels.
//
// A round moves its data one of two ways, chosen in FusedRound::run():
//   pull     (seq, thread) all ranks share one address space, so each
//            destination rank copies its local fast-path units and every
//            incoming frame straight out of the source ranks' storage with
//            Kernel::copy_range. No payload is staged and no message is
//            built. The pull runs as K rank steps, K = tiles(): step k
//            copies the payload slice [n*k/K, n*(k+1)/K) of every unit and
//            frame of n elements. Payloads run in ascending global order,
//            so step k of every frame covers about the same slice of the
//            array, and the ranks that run one after another find its
//            source lines still in cache. K is fixed when the round is
//            built, ceil(bytes / kTileBytes), so a step moves about one
//            L2-sized tile. A step is a barrier, so a backend that runs a
//            step on more than one worker pulls in one step (K = 1).
//   arena    (proc) payloads really cross a socket, once. The round lays
//            its message table out in the proc backend's shared payload
//            arena when it is built: each message gets an out-slot and an
//            in-slot, prefix sums over the message sizes, so the round's
//            region is every out-slot followed by every in-slot. pack()
//            runs each frame's Kernel::pack straight into its message's
//            out-slot, ProcBackend::exchange() moves the payloads from the
//            source workers to the destination workers' in-slots with only
//            descriptors on the control channels, and unpack() reads the
//            in-slots. unpack() first checks every returned inbox against
//            the message table, in-slots included, and refuses a round
//            whose inboxes differ before it touches destination storage.
// A round charges nothing: the machine charges its traffic table — one
// net::Flow per message and per local fast-path unit — with
// net::account_flows, so both transports charge byte-identical NetStats,
// and both leave identical destination storage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
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

/// Host wall time of one round's phases. A pull round's steps are booked
/// together as pack_ms; it has no exchange or unpack window.
struct RoundTimes {
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;
};

/// The byte budget of one pull step: the tile a step moves should stay in
/// a core's L2 while the ranks run one after another. Of 64, 128, 256 and
/// 512 KiB, 128 KiB has the lowest summed time over the replayed rounds
/// of bench_redist_kernels' `round` figure (docs/kernels.md).
inline constexpr std::uint64_t kTileBytes = std::uint64_t{128} << 10;

/// Pull steps of a round that moves `bytes`: ceil(bytes / tile_bytes), at
/// least one.
[[nodiscard]] int tile_count(std::uint64_t bytes,
                             std::uint64_t tile_bytes = kTileBytes);

class FusedRound {
 public:
  /// Builds the round's framing and traffic table over `members` for a
  /// machine of `ranks` ranks. `group` is the codegen copy group the round
  /// belongs to (named by diagnostics). Asserts that no member's
  /// destination storage is a member's source: a pull step writes each
  /// destination piece while other ranks read the sources.
  FusedRound(int ranks, std::vector<RoundMember> members, int group);

  /// Moves the round's data on `backend`: the pull in process, in tiles()
  /// steps on one worker and in one step on more, the arena path on
  /// proc. The one place the transport and the step count are chosen.
  RoundTimes run(exec::Backend& backend);
  /// The in-process pull (seq and thread) in `steps` rank steps, step k
  /// copying the slice [n*k/steps, n*(k+1)/steps) of every local unit
  /// and incoming frame of n elements. Any steps >= 1 leaves the same
  /// storage.
  void pull(exec::Backend& backend, int steps) const;
  /// The arena path's first phase: runs each rank's local units and
  /// packs each of its messages into its out-slot of `arena`, which must
  /// hold at least arena_elements() doubles.
  void pack(exec::Backend& backend, std::span<double> arena) const;
  /// The arena path's last phase, over the exchanged `inboxes`: checks
  /// every inbox against the message table in by_dst order (the source,
  /// destination, tag, segments, element count and in-slot of each
  /// message, and that none is missing or extra), raising an
  /// InternalError naming the copy group and the (src, dst) pair before
  /// any destination element changes; then unpacks every frame from its
  /// message's in-slot of `arena`.
  void unpack(exec::Backend& backend, const exec::Inboxes& inboxes,
              std::span<const double> arena) const;

  /// The message table laid out in the payload arena: entry i is message
  /// i of exchange(), tagged i, with its out-slot and in-slot.
  [[nodiscard]] std::span<const exec::ArenaMessage> slots() const {
    return slots_;
  }
  /// The round's region of the payload arena: its out-slots, then its
  /// in-slots, from the arena's start.
  [[nodiscard]] std::size_t arena_elements() const {
    return 2 * static_cast<std::size_t>(remote_elements_);
  }

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
  /// The pull steps of a one-worker backend: tile_count() of the bytes the
  /// round moves, local and remote.
  [[nodiscard]] int tiles() const { return tiles_; }

 private:
  [[nodiscard]] const redist::Kernel& kernel(int member, int k) const {
    return members_[static_cast<std::size_t>(member)]
        .kernels[static_cast<std::size_t>(k)];
  }
  /// Runs rank r's local fast-path units.
  void copy_local(int r) const;
  /// Raises an InternalError when rank r's returned inbox differs from
  /// the messages the table delivers to it.
  void check_inbox(int r,
                   const std::vector<net::wire::Descriptor>& inbox) const;

  std::vector<RoundMember> members_;
  int group_ = -1;
  redist::FusedExchange exchange_;
  std::vector<net::Flow> traffic_;
  std::uint64_t local_copies_ = 0;
  std::uint64_t local_elements_ = 0;
  std::uint64_t remote_elements_ = 0;
  std::uint64_t dispatches_ = 0;
  int tiles_ = 1;
  std::vector<exec::ArenaMessage> slots_;
};

}  // namespace hpfc::runtime
