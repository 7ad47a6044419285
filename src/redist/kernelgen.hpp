// Kernel specialization (copy-and-patch style): lowers a compiled
// SegmentProgram into a specialized pack/unpack/copy kernel stitched from
// precompiled fragment templates, so the steady-state remapping hot path
// executes straight-line bulk moves instead of the interpreted segment
// walker's per-segment stride branches.
//
// The catalog of fragments is compiled ahead of time (template
// instantiations over constant stride pairs, plus unrolled small-count and
// singleton bodies and a runtime-stride fallback); specialize() only
// *patches*: it takes ownership of the SegmentProgram, classifies each
// CopySegment, and stitches maximal runs of same-fragment segments into
// spans dispatched through one function pointer each. No machine code is
// generated at runtime — the "patch" is the program's own segment table,
// read in place as the fragments' operand table, and the "copy" is the
// fragment's precompiled body — which keeps the scheme portable while
// removing the interpreter's per-segment dispatch from the hot loop.
//
// The interpreted walkers in redist/segments.hpp remain the test
// reference (see docs/kernels.md): a specialized kernel must move exactly
// the bytes pack/unpack/copy_local would.
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
/// with constant strides folded in where the fragment's template
/// parameters fix them). `name` identifies the catalog entry (documented
/// in docs/kernels.md and cross-checked by tools/check_docs).
struct Fragment {
  const char* name;
  void (*pack)(const CopySegment* segs, std::size_t count, const double* src,
               double* out);
  void (*unpack)(const CopySegment* segs, std::size_t count, const double* in,
                 double* dst);
  void (*copy)(const CopySegment* segs, std::size_t count, const double* src,
               double* dst);
};

/// One stitched stretch of a kernel: `count` consecutive segments starting
/// at segment index `first`, all executed by one fragment, whose payload
/// window begins `out_offset` elements into the kernel's payload.
struct KernelSpan {
  const Fragment* fragment = nullptr;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Extent out_offset = 0;
};

/// A specialized transfer kernel: the SegmentProgram it was specialized
/// from (the single compiled form of the transfer) plus the stitched span
/// list over its segments. Equivalent by construction to interpreting
/// that program — pack/unpack/copy produce byte-identical results to
/// redist::pack_into / redist::unpack / redist::copy_local (asserted by
/// the property tests).
class Kernel {
 public:
  /// Packs the program's elements from `src_local` into the caller-sized
  /// window `out` of exactly elements() doubles (the fused-framing
  /// primitive, like redist::pack_into).
  void pack(std::span<const double> src_local, std::span<double> out) const;
  /// Scatters a payload window of exactly elements() doubles into the
  /// destination rank's local storage.
  void unpack(std::span<const double> payload, std::span<double> dst_local) const;
  /// Executes a src == dst program as direct strided copies (the local
  /// fast path; the storages must not alias).
  void copy(std::span<const double> src_local,
            std::span<double> dst_local) const;

  [[nodiscard]] Extent elements() const { return program_.elements; }
  /// The owned program: its segment table is the kernel's operand table.
  [[nodiscard]] const SegmentProgram& program() const { return program_; }
  [[nodiscard]] std::span<const KernelSpan> spans() const { return spans_; }
  /// Heap footprint of the segment table plus the span list (the
  /// plan-cache eviction unit).
  [[nodiscard]] std::uint64_t footprint_bytes() const;
  /// "memcpy" for a single-span kernel, "memcpy+gather_const" style
  /// summaries for stitched ones (tests and dumps).
  [[nodiscard]] std::string describe() const;

 private:
  friend Kernel specialize(SegmentProgram program);

  SegmentProgram program_;
  std::vector<KernelSpan> spans_;
};

/// Lowers one compiled SegmentProgram to a specialized kernel that owns
/// it: classifies every segment against the fragment catalog
/// (constant-stride template instantiation, unrolled small-count body,
/// singleton body, or the runtime-stride fallback) and stitches
/// same-fragment runs into spans.
Kernel specialize(SegmentProgram program);

/// The names of the precompiled fragments, in classification-priority
/// order (documented one-for-one in docs/kernels.md).
std::span<const std::string_view> fragment_catalog();

}  // namespace hpfc::redist
