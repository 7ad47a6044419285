// Kernel specialization (copy-and-patch style): lowers a compiled
// SegmentProgram into a specialized pack/unpack/copy kernel stitched from
// precompiled fragment templates, so the steady-state remapping hot path
// executes straight-line bulk moves instead of the interpreted segment
// walker's per-segment stride branches.
//
// The catalog of fragments is compiled ahead of time (template
// instantiations over constant stride pairs, plus unrolled small-count and
// singleton bodies and a runtime-stride fallback); specialize() only
// *patches*: it classifies each CopySegment, copies its operands into the
// kernel's step table, and stitches maximal runs of same-fragment steps
// into spans dispatched through one function pointer each. No machine code
// is generated at runtime — the "patch" is the operand table, the "copy"
// is the fragment's precompiled body — which keeps the scheme portable
// while removing the interpreter's per-segment dispatch from the hot loop.
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

/// One patched kernel step: a CopySegment's operands copied into the
/// kernel's flat step table at specialization time (the fragment bodies
/// read them with constant strides folded in where the fragment's
/// template parameters fix them).
struct KernelStep {
  Index src_base = 0;
  Index dst_base = 0;
  Extent src_stride = 1;
  Extent dst_stride = 1;
  Extent len = 0;
};

/// One precompiled fragment: three operation bodies (pack into a payload
/// window, unpack from a payload window, direct local copy) over a slice
/// of kernel steps. `name` identifies the catalog entry (documented in
/// docs/kernels.md and cross-checked by tools/check_docs).
struct Fragment {
  const char* name;
  void (*pack)(const KernelStep* steps, std::size_t count, const double* src,
               double* out);
  void (*unpack)(const KernelStep* steps, std::size_t count, const double* in,
                 double* dst);
  void (*copy)(const KernelStep* steps, std::size_t count, const double* src,
               double* dst);
};

/// One stitched stretch of a kernel: `count` consecutive steps starting at
/// step index `first`, all executed by one fragment, whose payload window
/// begins `out_offset` elements into the kernel's payload.
struct KernelSpan {
  const Fragment* fragment = nullptr;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Extent out_offset = 0;
};

/// A specialized transfer kernel: the patched step table plus the stitched
/// span list. Equivalent by construction to interpreting the source
/// SegmentProgram — pack/unpack/copy produce byte-identical results to
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

  [[nodiscard]] Extent elements() const { return elements_; }
  [[nodiscard]] std::span<const KernelStep> steps() const { return steps_; }
  [[nodiscard]] std::span<const KernelSpan> spans() const { return spans_; }
  /// Heap footprint of the patched tables (the plan-cache eviction unit).
  [[nodiscard]] std::uint64_t footprint_bytes() const;
  /// "memcpy" for a single-span kernel, "memcpy+gather_const" style
  /// summaries for stitched ones (tests and dumps).
  [[nodiscard]] std::string describe() const;

 private:
  friend Kernel specialize(const SegmentProgram& program);

  std::vector<KernelStep> steps_;
  std::vector<KernelSpan> spans_;
  Extent elements_ = 0;
};

/// Lowers one compiled SegmentProgram to a specialized kernel: classifies
/// every segment against the fragment catalog (constant-stride template
/// instantiation, unrolled small-count body, singleton body, or the
/// runtime-stride fallback) and stitches same-fragment runs into spans.
Kernel specialize(const SegmentProgram& program);

/// The names of the precompiled fragments, in classification-priority
/// order (documented one-for-one in docs/kernels.md).
std::span<const std::string_view> fragment_catalog();

}  // namespace hpfc::redist
