// Fused remap supersteps: when one remapping vertex copies several arrays
// at once, the per-array transfers for each (src, dst) rank pair are
// concatenated into one combined message with array/version *framing*, so
// the whole vertex costs a single exchange superstep — and a single
// per-pair message latency — instead of one per copy (the alpha term of
// the cost model charges per message, so k copies sharing a round pay the
// latency once).
//
// The builder is pure plan arithmetic over already-specialized kernels
// (each owning its compiled SegmentProgram): it never touches array data.
// The runtime caches one FusedExchange per (group, fired-member-set) and
// drives the members' kernels over the frames.
#pragma once

#include <span>
#include <vector>

#include "redist/kernelgen.hpp"

namespace hpfc::redist {

/// One member transfer's slice of a combined payload: `member`/`kernel`
/// name the Kernel (member index in the fused set, kernel index within
/// that member's plan), `offset`/`len` its element window.
struct FusedFrame {
  int member = 0;
  int kernel = 0;
  Extent offset = 0;
  Extent len = 0;
};

/// One combined message of the fused round: all member transfers for a
/// single (src, dst) rank pair, framed back-to-back in member order.
struct FusedMessage {
  int src = 0;
  int dst = 0;
  Extent elements = 0;  ///< combined payload length
  int segments = 0;     ///< total bulk-copy segments across the frames
  std::vector<FusedFrame> frames;
};

/// A rank-local transfer (src == dst) that the runtime's fast path runs
/// as a direct strided copy instead of framing it into a message.
struct FusedLocal {
  int member = 0;
  int kernel = 0;
};

/// The compiled form of one fused communication round.
struct FusedExchange {
  /// Message table; a routed net::Message's tag is its index here.
  std::vector<FusedMessage> messages;
  /// Message-table indices each source rank emits, in table order.
  std::vector<std::vector<int>> by_src;
  /// Per-rank local fast-path units, in member order.
  std::vector<std::vector<FusedLocal>> local_by_rank;
};

/// Builds the fused round over the member kernels of one copy group.
/// `members[m]` is member m's per-pair kernels; each kernel's program()
/// supplies its ranks, element count and segment count.
///
/// Off-rank pairs merge across members into one FusedMessage per
/// (src, dst), framed in member order. src == dst transfers never merge:
/// they become per-rank FusedLocal units (the local-copy fast path).
FusedExchange build_fused_exchange(
    int ranks, std::span<const std::span<const Kernel>> members);

}  // namespace hpfc::redist
