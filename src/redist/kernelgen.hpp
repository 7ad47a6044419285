// Kernel specialization (copy-and-patch style): lowers a compiled
// SegmentProgram into a specialized pack/unpack/copy kernel stitched from
// precompiled fragment templates, so the steady-state remapping hot path
// executes straight-line bulk moves instead of the interpreted segment
// walker's per-segment stride branches.
//
// The catalog of fragments is compiled ahead of time (memcpy, gather,
// scatter and strided bodies over the {unit, runtime} stride pairs — a
// unit stride compiles to memcpy, any other is read from the segment —
// plus unrolled small-count and singleton bodies, each wrapped in the
// periodic fragment's outer loop over a block's repetitions);
// specialize() only *patches*: it takes ownership of the SegmentProgram,
// classifies each body CopySegment, and stitches maximal runs of
// same-fragment segments into spans dispatched through one function
// pointer each — a span of a repeated block once for all its
// repetitions. No machine code is
// generated at runtime — the "patch" is the program's own segment table,
// read in place as the fragments' operand table, and the "copy" is the
// fragment's precompiled body — which keeps the scheme portable while
// removing the interpreter's per-segment dispatch from the hot loop.
//
// The same catalog holds the round stencils' gather_w<W> bodies
// (runtime/round.hpp): one destination line of W lanes per period, the
// lanes' source pointers patched in by the round at every run.
//
// The interpreted walkers testing::pack_into / unpack / copy_local
// (src/testing/oracles.hpp) are the test reference (see docs/kernels.md):
// a specialized kernel must move exactly the bytes they would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "redist/segments.hpp"

namespace hpfc::redist {

/// One precompiled fragment: three operation bodies (pack into a payload
/// window, unpack from a payload window, direct local copy) over a slice
/// of the program's segments (the fragment bodies read their operands
/// in place; a unit stride compiles to memcpy, any other stride is read
/// from the segment), each wrapped in the `periodic` fragment: an
/// outer loop over a span's repetitions that advances both data pointers
/// by one repetition's step per pass and runs the inlined body over the
/// span's segments. A span of repetition-free blocks is one pass.
/// `name` identifies the catalog entry (documented in docs/kernels.md and
/// cross-checked by tools/check_docs).
struct Fragment {
  using Op = void (*)(const CopySegment* segs, std::size_t count, Extent reps,
                      Extent in_step, Extent out_step, const double* in,
                      double* out);
  const char* name;
  Op pack;    ///< in: source local storage, out: payload window
  Op unpack;  ///< in: payload window, out: destination local storage
  Op copy;    ///< in: source local storage, out: destination storage
};

/// One stitched stretch of a kernel: `count` consecutive body segments
/// starting at segment index `first`, all executed by one fragment, whose
/// payload window begins `out_offset` elements into the kernel's payload.
/// The fragment's periodic loop runs the span `reps` times: repetition k
/// reads and writes at k*src_step / k*dst_step local positions and
/// k*out_step payload elements further on (reps == 1 outside a repeated
/// block). One repetition moves `elements` elements, at payload positions
/// [out_offset + k*out_step, out_offset + k*out_step + elements).
struct KernelSpan {
  const Fragment* fragment = nullptr;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Extent out_offset = 0;
  Extent elements = 0;
  Extent reps = 1;
  Extent src_step = 0;
  Extent dst_step = 0;
  Extent out_step = 0;
};

/// A specialized transfer kernel: the SegmentProgram it was specialized
/// from (the single compiled form of the transfer) plus the stitched span
/// list over its blocks. Equivalent by construction to interpreting
/// that program — pack/unpack/copy produce byte-identical results to
/// the walkers testing::pack_into / unpack / copy_local (asserted by the
/// property tests).
class Kernel {
 public:
  /// Packs the program's elements from `src_local` into the caller-sized
  /// window `out` of exactly elements() doubles (the fused-framing
  /// primitive).
  void pack(std::span<const double> src_local, std::span<double> out) const;
  /// Scatters a payload window of exactly elements() doubles into the
  /// destination rank's local storage.
  void unpack(std::span<const double> payload, std::span<double> dst_local) const;
  /// Executes the program as direct strided copies from the source
  /// rank's local storage into the destination rank's, with no payload:
  /// the local fast path of a src == dst program, and the in-process
  /// pull of an off-rank one. The storages must not alias.
  void copy(std::span<const double> src_local,
            std::span<double> dst_local) const;
  /// copy() restricted to the payload positions [lo, hi), 0 <= lo <= hi
  /// <= elements(): writes exactly the destination positions of those
  /// elements, the bytes copy() writes there, and nothing else. A segment
  /// or repetition the range cuts runs clipped. Costs O(log spans) to
  /// find the first span, plus O(1) per span touched and, for the at most
  /// two repetitions of a span the range cuts, a walk over that span's
  /// body segments.
  void copy_range(std::span<const double> src_local,
                  std::span<double> dst_local, Extent lo, Extent hi) const;

  [[nodiscard]] Extent elements() const { return program_.elements; }
  /// The owned program: its segment table is the kernel's operand table.
  [[nodiscard]] const SegmentProgram& program() const { return program_; }
  [[nodiscard]] std::span<const KernelSpan> spans() const { return spans_; }
  /// "memcpy" for a single-span kernel, "memcpy+gather" style
  /// summaries for stitched ones, "periodic(unrolled)" for a repeated
  /// span (tests and dumps).
  [[nodiscard]] std::string describe() const;

 private:
  friend Kernel specialize(SegmentProgram program);

  SegmentProgram program_;
  std::vector<KernelSpan> spans_;
};

/// Lowers one compiled SegmentProgram to a specialized kernel that owns
/// it: classifies every body segment against the fragment catalog
/// (singleton body, unrolled small-count body, or one of the memcpy /
/// gather / scatter / strided cells by unit-ness of the two strides) and
/// stitches same-fragment runs into spans, within a repeated block (run
/// by the periodic fragment) or across consecutive reps == 1 blocks.
Kernel specialize(SegmentProgram program);

/// The names of the precompiled fragments: the segment classes in
/// classification-priority order, then `periodic`, which wraps any of
/// them, then the round stencils' gather_w2 ... gather_w16 (documented
/// one-for-one in docs/kernels.md).
std::span<const std::string_view> fragment_catalog();

/// The widest destination line a round stencil gathers.
inline constexpr int kMaxGatherWidth = 16;

/// A round stencil's precompiled body (runtime/round.hpp), the
/// gather_w<W> fragment: `periods` periods of one destination line W
/// lanes wide, dst[p*W + j] = src[j][p*src_step] for every lane j < W
/// and period p, unrolled straight-line over the lanes. Its holes are
/// the W source pointers and the destination pointer, which the caller
/// patches in.
using GatherOp = void (*)(const double* const* src, double* dst,
                          Extent periods, Extent src_step);

/// The gather_w<width> fragment, 2 <= width <= kMaxGatherWidth.
[[nodiscard]] GatherOp gather_fragment(int width);

}  // namespace hpfc::redist
