// Segment compilation: lowers a closed-form TransferV2 into a flat list
// of bulk copies over the *local linear* index spaces of its two end
// points, so pack/unpack run as memcpy-style block moves instead of
// per-element indexed gathers.
//
// Both end points store their owned cartesian product row-major, and both
// enumerate transfer elements in the same ascending product order, so the
// element stream decomposes into maximal stretches where the source and
// destination local positions each advance with a constant stride. Each
// stretch is one CopySegment; a segment with both strides 1 is a plain
// contiguous copy. The program size is O(segments), never O(elements):
// per-element indices are never materialized or cached.
//
// The pack/unpack/copy_local walkers below interpret a SegmentProgram
// segment by segment. The runtime executes the specialized kernels of
// redist/kernelgen.hpp instead (redist::specialize lowers a program to
// precompiled constant-stride fragments); the walkers remain the test
// reference a kernel must reproduce byte for byte (see docs/kernels.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "redist/commsets.hpp"

namespace hpfc::redist {

/// One bulk copy: `len` elements read from src_base, src_base+src_stride,
/// ... and written at dst_base, dst_base+dst_stride, ... (local linear
/// positions on the respective ranks; payload order is segment order).
struct CopySegment {
  Index src_base = 0;
  Extent src_stride = 1;
  Index dst_base = 0;
  Extent dst_stride = 1;
  Extent len = 0;
};

/// The compiled form of one transfer. The runtime caches it inside the
/// redist::Kernel specialized from it (redist/kernelgen.hpp).
struct SegmentProgram {
  int src = 0;
  int dst = 0;
  Extent elements = 0;
  std::vector<CopySegment> segments;

  /// Segments whose source and destination are both contiguous.
  [[nodiscard]] std::size_t contiguous_segments() const;
};

/// Compiles `transfer` against the owned run sets of its two end-point
/// ranks, as returned by ConcreteLayout::owned_index_runs with the
/// default for_sending=false on both sides: local positions index the
/// ranks' *storage* layouts, which hold the full owned set (the sending
/// restriction only decides which rank sends, not where elements live).
/// Adjacent emitted segments that continue each other with a uniform
/// stride on both end points are coalesced into one segment; the element
/// sequence (and with it the payload pack order) is unchanged.
SegmentProgram compile_transfer(const TransferV2& transfer,
                                std::span<const IndexRuns> src_owned,
                                std::span<const IndexRuns> dst_owned);

/// Packs the program's elements from the source rank's local storage into
/// `payload` (sized up front, then bulk-copied).
void pack(const SegmentProgram& program, std::span<const double> src_local,
          std::vector<double>& payload);

/// Packs into a caller-provided window of exactly `program.elements`
/// doubles — the framing primitive for fused multi-array payloads, where
/// several programs pack into disjoint slices of one combined buffer.
void pack_into(const SegmentProgram& program, std::span<const double> src_local,
               std::span<double> out);

/// Scatters `payload` into the destination rank's local storage.
void unpack(const SegmentProgram& program, std::span<const double> payload,
            std::span<double> dst_local);

/// Executes a src == dst program as direct strided copies between the two
/// local storages, without materializing a payload (the runtime's local
/// fast path). Equivalent to pack() into a scratch buffer followed by
/// unpack(); the storages must not alias (they belong to two different
/// array versions).
void copy_local(const SegmentProgram& program,
                std::span<const double> src_local,
                std::span<double> dst_local);

}  // namespace hpfc::redist
