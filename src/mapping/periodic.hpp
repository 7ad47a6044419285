// Periodic programs: the two-level form of a stream of strided runs that
// repeats window by window.
//
// Every set the runtime touches is block-cyclic, so a rank's ownership
// and a transfer's copy list are both streams of strided runs whose
// windows (the owners' lcm period) are translates of each other. Listing
// the runs one window at a time makes a program O(n). A periodic program
// instead stores a short *body* table of runs and a list of blocks; a
// block runs `count` body entries `reps` times, repetition k shifted by a
// fixed step on both index spaces. Clipped first/last windows are
// ordinary reps == 1 blocks. Describing an iteration set by bounds and
// strides instead of enumerating it follows *Symbolic Loop Compilation
// for Tightly Coupled Processor Arrays* (PAPERS.md).
//
// SegmentCoalescer builds such a program in closed form. It merges runs
// that continue each other into maximal runs, exactly as a flat
// coalescing walk would, and when it is fed whole windows it simulates
// only until the coalescing state repeats under translation, then
// emits the rest of the windows as one block. Expanding the blocks
// yields the flat walk's run sequence run for run (asserted against the
// flat oracles in src/testing/oracles.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/shape.hpp"

namespace hpfc::mapping {

/// One bulk copy between two index spaces: `len` elements read from
/// src_base, src_base+src_stride, ... and written at dst_base,
/// dst_base+dst_stride, ... A transfer copies between the source and
/// destination ranks' local positions (redist/segments.hpp); an ownership
/// stretch pairs a rank's local positions (src) with global linear
/// indices (dst).
struct CopySegment {
  Index src_base = 0;
  Extent src_stride = 1;
  Index dst_base = 0;
  Extent dst_stride = 1;
  Extent len = 0;

  friend bool operator==(const CopySegment&, const CopySegment&) = default;
};

/// `count` body segments starting at body index `first`, executed `reps`
/// times; repetition k is shifted by k*src_step source and k*dst_step
/// destination positions. Expansion order is repetition by repetition,
/// segment by segment.
struct SegmentBlock {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Extent reps = 1;
  Extent src_step = 0;
  Extent dst_step = 0;

  friend bool operator==(const SegmentBlock&, const SegmentBlock&) = default;
};

/// `seg` shifted by k repetitions of a (src_step, dst_step) block.
[[nodiscard]] inline CopySegment shifted(CopySegment seg, Extent k,
                                         Extent src_step, Extent dst_step) {
  seg.src_base += k * src_step;
  seg.dst_base += k * dst_step;
  return seg;
}

/// The repetition-free block list over a body of `n` entries.
[[nodiscard]] std::vector<SegmentBlock> flat_blocks(std::size_t n);

/// Number of entries in the expansion of `blocks` — closed form.
[[nodiscard]] std::uint64_t expanded_count(std::span<const SegmentBlock> blocks);

/// The two-level walk every periodic program shares (transfers and
/// ownership): calls fn(entry) for each entry of the expansion of
/// `blocks` over `body` — block by block, repetition by repetition, body
/// entry by body entry — repetition k moved by
/// `shifted(entry, k, src_step, dst_step)`.
template <typename Entry, typename Fn>
void for_each_expanded(const std::vector<Entry>& body,
                       std::span<const SegmentBlock> blocks, Fn&& fn) {
  for (const SegmentBlock& b : blocks)
    for (Extent k = 0; k < b.reps; ++k)
      for (std::uint32_t i = b.first; i < b.first + b.count; ++i)
        fn(shifted(body[i], k, b.src_step, b.dst_step));
}

/// A periodic program: the body table and the blocks that expand it.
struct PeriodicSegments {
  std::vector<CopySegment> segments;
  std::vector<SegmentBlock> blocks;
};

/// Coalesces a segment stream into maximal segments and compresses
/// repeating windows into periodic blocks.
///
/// Coalescing rule: a segment continuing the trailing one with a uniform
/// stride on both index spaces is merged into it. A single-element segment
/// has no stride of its own and adopts its neighbour's (two adjacent
/// singletons define the merged stride). Strides of merged segments are
/// >= 1.
class SegmentCoalescer {
 public:
  /// Appends one segment (len >= 1).
  void push(const CopySegment& next);

  /// Appends `reps` windows: window k is `window` with every segment
  /// shifted by k*src_step and k*dst_step. Costs O(|window|) per
  /// simulated window; windows after the coalescing state repeats are
  /// emitted in closed form.
  void push_windows(std::span<const CopySegment> window, Extent reps,
                    Extent src_step, Extent dst_step);

  /// Seals the stream and hands over its program; the coalescer starts
  /// over empty.
  [[nodiscard]] PeriodicSegments finish();

 private:
  /// Moves the first `n` pending segments (all final) into blocks,
  /// extending the last periodic block while they repeat it.
  void commit(std::size_t n);

  /// Segments not yet placed in a block; back() is the one still growing.
  std::vector<CopySegment> pending_;
  std::vector<CopySegment> body_;
  std::vector<SegmentBlock> blocks_;
};

}  // namespace hpfc::mapping
