// Segment compilation: lowers a closed-form TransferV2 into bulk copies
// over the *local linear* index spaces of its two end points, so
// pack/unpack run as memcpy-style block moves instead of per-element
// indexed gathers.
//
// Both end points store their owned cartesian product row-major, and both
// enumerate transfer elements in the same ascending product order, so the
// element stream decomposes into maximal stretches where the source and
// destination local positions each advance with a constant stride. Each
// stretch is one CopySegment; a segment with both strides 1 is a plain
// contiguous copy. The stretches repeat from one lcm window of the two
// owners to the next, so a program is periodic (mapping/periodic.hpp): a
// short body table of segments plus blocks that run a body slice `reps`
// times, each repetition shifted by a fixed (src_step, dst_step), with
// the clipped first/last windows as reps == 1 blocks. The program size is
// O(pattern) per row, never O(elements) nor O(windows).
//
// The runtime executes a program through the specialized kernels of
// redist/kernelgen.hpp (redist::specialize lowers it to precompiled unit-
// and runtime-stride fragments). The segment walkers that interpret a
// program segment by segment (testing::pack_into, unpack, copy_local in
// src/testing/oracles.hpp) are the reference a kernel must reproduce byte
// for byte (see docs/kernels.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/periodic.hpp"
#include "redist/commsets.hpp"

namespace hpfc::redist {

using mapping::CopySegment;
using mapping::SegmentBlock;

/// The compiled form of one transfer. The runtime caches it inside the
/// redist::Kernel specialized from it (redist/kernelgen.hpp).
struct SegmentProgram {
  int src = 0;
  int dst = 0;
  Extent elements = 0;
  /// The body table the blocks index (the kernels' operand table).
  std::vector<CopySegment> segments;
  std::vector<SegmentBlock> blocks;

  /// The repetition-free program of `segments` (one reps == 1 block).
  static SegmentProgram flat(int src, int dst,
                             std::vector<CopySegment> segments);

  /// Number of segments in the expansion — closed form. This is what
  /// the `pack_segments` counter sums.
  [[nodiscard]] std::uint64_t segment_count() const;

  /// Calls fn(CopySegment) for every expanded segment, in payload order.
  template <typename Fn>
  void for_each_segment(Fn&& fn) const {
    mapping::for_each_expanded(segments, blocks, fn);
  }
};

/// Compiles `transfer` against the owned run sets of its two end-point
/// ranks, as returned by ConcreteLayout::owned_index_runs with the
/// default for_sending=false on both sides: local positions index the
/// ranks' *storage* layouts, which hold the full owned set (the sending
/// restriction only decides which rank sends, not where elements live).
/// Adjacent emitted segments that continue each other with a uniform
/// stride on both end points are coalesced into one segment; the element
/// sequence (and with it the payload pack order) is unchanged. The
/// innermost dimension is emitted one lcm window at a time only until the
/// coalescing repeats; the remaining windows become one block. The
/// expansion equals the flat reference (testing::flat_segments) segment
/// for segment.
SegmentProgram compile_transfer(const TransferV2& transfer,
                                std::span<const IndexRuns> src_owned,
                                std::span<const IndexRuns> dst_owned);

}  // namespace hpfc::redist
