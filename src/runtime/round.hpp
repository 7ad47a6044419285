// One fused remapping round executed on a backend: the data movement of
// every copy a remapping vertex fires, as built by
// redist::build_fused_exchange over the members' specialized kernels.
//
// A round moves its data one of three ways, chosen in FusedRound::run().
// The two in-process ones share one schedule on seq and thread alike: one
// Backend::step of P tasks over the K*P (tile k, destination rank r)
// items, K = tiles(), task t running items [K*t, K*(t+1)) of the
// tile-major order k*P + r. Items write disjoint positions, so the round
// needs no barrier but its step's. Seq runs the tiles in order across the
// ranks, which find a tile's source lines still in cache; at K >= P each
// thread worker gets whole tile ranges.
//   stencil  (seq, thread) all ranks share one address space, and every
//            kernel of the round normalizes to per-period lanes: a
//            repeated block's body elements, or the elements of a
//            reps == 1 segment that strides by a period step, one per
//            period. When every member's destination line on every rank
//            is filled period by period by 2..16 lanes that share its
//            width W (the destination step) and one source step, the
//            periods all its lanes run go through the precompiled
//            gather_w<W> (redist/kernelgen.hpp), d[p*W + j] = s_j[p*step],
//            and each kernel's other payload positions (clipped windows,
//            repetitions past the line's periods) through
//            Kernel::copy_range. The holes — each lane's source pointer,
//            each line's destination pointer — are patched at every run,
//            because a cached round outlives frees and reallocations of
//            its storage. A tile is a range of periods of every line,
//            about kStencilTileBytes; rank r's rests run in one of its
//            items.
//   pull     (seq, thread) any other in-process round, per rank pair:
//            each destination rank copies its local fast-path units and
//            every incoming frame straight out of the source ranks'
//            storage with Kernel::copy_range. No payload is staged and no
//            message is built. Tile k is the payload slice
//            [n*k/K, n*(k+1)/K) of every unit and frame of n elements,
//            about kTileBytes of the round; payloads run in ascending
//            global order, so it is about one slice of the array.
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
#include <memory>
#include <span>
#include <vector>

#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "net/network.hpp"
#include "redist/fused.hpp"
#include "redist/kernelgen.hpp"
#include "support/piece.hpp"

namespace hpfc::runtime {

/// Per-rank local storage of one array version, indexed by layout rank.
using RankLocals = std::vector<Piece>;

/// One member copy of a round: its per-pair kernels and the storage of
/// its source and destination versions. The pointers must stay valid
/// (and the outer vectors unresized) for as long as the round runs, and
/// the destination's pieces must be sized when the round is built.
struct RoundMember {
  std::span<const redist::Kernel> kernels;
  const RankLocals* src = nullptr;
  RankLocals* dst = nullptr;
};

/// Host wall time of one round's phases. An in-process round (stencil or
/// pull) is booked as pack_ms; it has no exchange or unpack window.
struct RoundTimes {
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;
};

/// The byte budget of one pull tile: a tile's source lines should stay in
/// a core's L2 while the ranks run one after another. Of 64, 128, 256 and
/// 512 KiB, 128 KiB has the lowest summed time over the replayed rounds
/// of bench_redist_kernels' `round` figure (docs/kernels.md).
inline constexpr std::uint64_t kTileBytes = std::uint64_t{128} << 10;

/// The byte budget of one stencil tile, every line's slice of a range of
/// periods: a tile's source lines, which several lines read, should stay
/// in L1 while the lines run. Of 16, 32 and 128 KiB, 32 KiB has the
/// lowest summed time over the stencil rounds of bench_redist_kernels'
/// `round` figure (docs/kernels.md).
inline constexpr std::uint64_t kStencilTileBytes = std::uint64_t{32} << 10;

/// Tiles of a round that moves `bytes`: ceil(bytes / tile_bytes), at
/// least one.
[[nodiscard]] int tile_count(std::uint64_t bytes,
                             std::uint64_t tile_bytes = kTileBytes);

class FusedRound {
 public:
  /// Builds the round's framing and traffic table over `members` for a
  /// machine of `ranks` ranks. `group` is the codegen copy group the round
  /// belongs to (named by diagnostics). Asserts that no member's
  /// destination storage is a member's source: a pull's tasks write
  /// destination pieces while other tasks read the sources.
  FusedRound(int ranks, std::vector<RoundMember> members, int group);

  /// Moves the round's data on `backend`: in process, the stencil when
  /// the round has one, else the per-pair pull, either in tiles() tiles;
  /// the arena path on proc. The one place the transport is chosen.
  RoundTimes run(exec::Backend& backend);
  /// The per-pair in-process pull in `tiles` tiles: item (k, r) copies
  /// the slice [n*k/tiles, n*(k+1)/tiles) of every local unit and
  /// incoming frame of n elements of rank r. Any tiles >= 1 leaves the
  /// same storage. run() takes it for a round without a stencil.
  void pull(exec::Backend& backend, int tiles) const;
  /// The stencil pull of a round with has_stencil() in `tiles` tiles:
  /// item (k, r) gathers periods [n*k/tiles, n*(k+1)/tiles) of rank r's
  /// lines of n periods, and rank r's rests run in its one item of
  /// [tiles*r, tiles*r + P). Patches the storage's current base pointers
  /// in first. Any tiles >= 1 leaves the storage pull() leaves.
  void gather(exec::Backend& backend, int tiles);
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
  /// Whether member `member`'s kernels write every position of its
  /// destination: for every destination rank r, the elements of the
  /// kernels with program().dst == r sum to the size of piece r. A
  /// plan's transfers write each destination position at most once, so
  /// the count is the cover. A covered destination needs no fill before
  /// the round; a live-region-restricted copy does not cover.
  [[nodiscard]] bool covers(int member) const {
    return covers_[static_cast<std::size_t>(member)];
  }
  /// The tiles run() moves the round in on seq and thread: tile_count()
  /// of the bytes the round moves, local and remote, at kStencilTileBytes
  /// with a stencil and at kTileBytes without.
  [[nodiscard]] int tiles() const { return tiles_; }
  /// Whether the round pulls through its stencil: every destination line
  /// of every member is filled period by period by 2 to kMaxGatherWidth
  /// lanes that share one source step.
  [[nodiscard]] bool has_stencil() const { return stencil_ != nullptr; }

 private:
  [[nodiscard]] const redist::Kernel& kernel(int member, int k) const {
    return members_[static_cast<std::size_t>(member)]
        .kernels[static_cast<std::size_t>(k)];
  }
  /// Raises an InternalError when rank r's returned inbox differs from
  /// the messages the table delivers to it.
  void check_inbox(int r,
                   const std::vector<net::wire::Descriptor>& inbox) const;
  /// Builds the stencil when every kernel of the round normalizes to
  /// per-period lanes that fill their destination lines; otherwise
  /// leaves it empty.
  void build_stencil(int ranks);

  /// One destination line of the stencil: member `member`'s storage on
  /// rank `rank`, `width` lanes wide. Its periods [0, periods), the local
  /// positions [base, base + periods*width), run through `gather`; its
  /// lane j is lanes[first + j], and every lane reads `step` source
  /// positions further on per period.
  struct StencilLine {
    redist::GatherOp gather = nullptr;
    int member = 0;
    int rank = 0;
    int width = 0;
    redist::Extent step = 0;
    std::uint32_t first = 0;
    redist::Extent base = 0;
    redist::Extent periods = 0;
  };
  /// One lane: it reads source rank `rank` at local position `offset` in
  /// its line's period 0.
  struct StencilLane {
    int rank = 0;
    redist::Extent offset = 0;
  };
  /// A payload range [lo, hi) of a kernel that no line gathers: a clipped
  /// window or a repetition past the line's periods.
  struct StencilRest {
    int member = 0;
    int kernel = 0;
    redist::Extent lo = 0;
    redist::Extent hi = 0;
  };

  std::vector<RoundMember> members_;
  int group_ = -1;
  redist::FusedExchange exchange_;
  std::vector<net::Flow> traffic_;
  std::uint64_t local_copies_ = 0;
  std::uint64_t local_elements_ = 0;
  std::uint64_t remote_elements_ = 0;
  std::uint64_t dispatches_ = 0;
  int tiles_ = 1;
  std::vector<bool> covers_;
  std::vector<exec::ArenaMessage> slots_;

  /// The round's stencil; null without one. Held apart so a round
  /// without a stencil, the common case, stays the size it was.
  struct Stencil {
    /// The lines in destination rank order: rank r's are
    /// lines[line_begin[r], line_begin[r + 1]).
    std::vector<StencilLine> lines;
    std::vector<std::uint32_t> line_begin;
    std::vector<StencilLane> lanes;
    /// The rests in destination rank order: rank r's are
    /// rests[rest_begin[r], rest_begin[r + 1]).
    std::vector<StencilRest> rests;
    std::vector<std::uint32_t> rest_begin;
    /// The patched holes, rewritten by every gather(): each lane's source
    /// pointer and each line's destination pointer at period 0. A cached
    /// round outlives frees and reallocations of its storage, so no
    /// pointer is kept from one run to the next.
    std::vector<const double*> lane_src;
    std::vector<double*> line_dst;
  };
  std::unique_ptr<Stencil> stencil_;
};

}  // namespace hpfc::runtime
