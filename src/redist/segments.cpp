#include "redist/segments.hpp"

#include "support/check.hpp"

namespace hpfc::redist {

namespace {

/// One stretch of a dimension's member sequence over which the positions
/// within both owners' run sets advance with constant per-dimension steps.
struct DimPiece {
  Index src_pos0 = 0;
  Index dst_pos0 = 0;
  Extent src_step = 0;
  Extent dst_step = 0;
  Extent len = 0;
};

/// Position deltas over a member spacing `st` are constant when the owner
/// set is a full interval (positions are affine in the index) or when the
/// spacing covers whole owner periods (the phase is preserved, so the
/// member count of every stretch is the same).
bool affine_over(const mapping::IndexRuns& owner, Extent st) {
  return owner.full() || st % owner.period() == 0;
}

/// A dimension's piece sequence in periodic form: `window` repeated
/// `reps` times, repetition k shifted by k*src_step / k*dst_step owner
/// positions, then `tail`. Expanded, it is the reference decomposition:
/// one arithmetic piece per run instance, window by window.
struct DimPattern {
  std::vector<DimPiece> window;
  Extent reps = 1;
  Extent src_step = 0;
  Extent dst_step = 0;
  std::vector<DimPiece> tail;

  template <typename Fn>
  void for_each_piece(Fn&& fn) const {
    for (Extent k = 0; k < reps; ++k) {
      for (DimPiece piece : window) {
        piece.src_pos0 += k * src_step;
        piece.dst_pos0 += k * dst_step;
        fn(piece);
      }
    }
    for (const DimPiece& piece : tail) fn(piece);
  }
};

DimPattern decompose(const mapping::IndexRuns& x,
                     const mapping::IndexRuns& src,
                     const mapping::IndexRuns& dst) {
  DimPattern pattern;
  const Extent cnt = x.count();
  if (cnt == 0) return pattern;

  const auto piece_from = [&](std::vector<DimPiece>& out, Index start,
                              Extent stride, Extent count) {
    const Index s0 = src.position_of(start);
    const Index d0 = dst.position_of(start);
    HPFC_ASSERT_MSG(s0 >= 0 && d0 >= 0,
                    "transfer element outside its owners' sets");
    if (count == 1) {
      out.push_back({s0, d0, 0, 0, 1});
      return;
    }
    const Index s1 = src.position_of(start + stride);
    const Index d1 = dst.position_of(start + stride);
    HPFC_ASSERT(s1 >= 0 && d1 >= 0);
    out.push_back({s0, d0, s1 - s0, d1 - d0, count});
  };

  // One member per period with uniform owner stretches: the cross-period
  // repetition itself is a single arithmetic piece (e.g. block <-> cyclic,
  // where every period contributes one strided element).
  const Extent period = x.period();
  if (cnt > 1 && x.count_in_period() == 1 && affine_over(src, period) &&
      affine_over(dst, period)) {
    piece_from(pattern.window, x.first(), period, cnt);
    return pattern;
  }

  const auto window_pieces = [&](Extent w, std::vector<DimPiece>& out) {
    x.for_each_window_instance(w, [&](Index start, Extent stride,
                                      Extent count) {
      if (count == 1 || stride == 1 ||
          (affine_over(src, stride) && affine_over(dst, stride))) {
        piece_from(out, start, stride, count);
      } else {
        // Irregular spacing against a finer owner period: fall back to
        // per-member pieces for this instance only.
        for (Extent j = 0; j < count; ++j)
          piece_from(out, start + j * stride, 1, 1);
      }
    });
  };

  // Full windows are translates of each other; when a window spans whole
  // owner periods on both sides, so are their owner positions.
  const Extent full = x.full_windows();
  if (full >= 2 && affine_over(src, period) && affine_over(dst, period)) {
    window_pieces(0, pattern.window);
    pattern.reps = full;
    pattern.src_step = src.count_between(x.base(), x.base() + period);
    pattern.dst_step = dst.count_between(x.base(), x.base() + period);
    if (full * period < x.span()) window_pieces(full, pattern.tail);
    return pattern;
  }
  const Extent windows = (x.span() + period - 1) / period;
  for (Extent w = 0; w < windows; ++w) window_pieces(w, pattern.window);
  return pattern;
}

}  // namespace

SegmentProgram SegmentProgram::flat(int src, int dst,
                                    std::vector<CopySegment> segments) {
  SegmentProgram program;
  program.src = src;
  program.dst = dst;
  for (const CopySegment& s : segments) program.elements += s.len;
  program.blocks = mapping::flat_blocks(segments.size());
  program.segments = std::move(segments);
  return program;
}

std::uint64_t SegmentProgram::segment_count() const {
  return mapping::expanded_count(blocks);
}

SegmentProgram compile_transfer(const TransferV2& transfer,
                                std::span<const IndexRuns> src_owned,
                                std::span<const IndexRuns> dst_owned) {
  const int dims = static_cast<int>(transfer.dim_runs.size());
  HPFC_ASSERT(static_cast<int>(src_owned.size()) == dims &&
              static_cast<int>(dst_owned.size()) == dims);
  SegmentProgram program;
  program.src = transfer.src;
  program.dst = transfer.dst;
  program.elements = transfer.count();
  if (program.elements == 0) return program;

  std::vector<DimPattern> patterns(static_cast<std::size_t>(dims));
  for (int d = 0; d < dims; ++d)
    patterns[static_cast<std::size_t>(d)] =
        decompose(transfer.dim_runs[static_cast<std::size_t>(d)],
                  src_owned[static_cast<std::size_t>(d)],
                  dst_owned[static_cast<std::size_t>(d)]);

  // Row-major local strides of the owned products at both end points.
  std::vector<Extent> src_stride(static_cast<std::size_t>(dims), 1);
  std::vector<Extent> dst_stride(static_cast<std::size_t>(dims), 1);
  for (int d = dims - 2; d >= 0; --d) {
    src_stride[static_cast<std::size_t>(d)] =
        src_stride[static_cast<std::size_t>(d + 1)] *
        src_owned[static_cast<std::size_t>(d + 1)].count();
    dst_stride[static_cast<std::size_t>(d)] =
        dst_stride[static_cast<std::size_t>(d + 1)] *
        dst_owned[static_cast<std::size_t>(d + 1)].count();
  }

  // Outer dimensions are enumerated piece by piece and member by member,
  // one row per outer coordinate tuple; the innermost dimension goes to
  // the coalescer a whole window pattern at a time. Coalescing continues
  // across rows, as in the flat emission order.
  mapping::SegmentCoalescer coalescer;
  const DimPattern& inner = patterns.back();
  std::vector<CopySegment> row;
  const auto segment = [](const DimPiece& piece, Index src_base,
                          Index dst_base) {
    return CopySegment{src_base + piece.src_pos0, piece.src_step,
                       dst_base + piece.dst_pos0, piece.dst_step, piece.len};
  };
  const auto emit = [&](auto&& self, int d, Index src_base,
                        Index dst_base) -> void {
    if (d == dims - 1) {
      row.clear();
      for (const DimPiece& piece : inner.window)
        row.push_back(segment(piece, src_base, dst_base));
      coalescer.push_windows(row, inner.reps, inner.src_step,
                             inner.dst_step);
      for (const DimPiece& piece : inner.tail)
        coalescer.push(segment(piece, src_base, dst_base));
      return;
    }
    const Extent sl = src_stride[static_cast<std::size_t>(d)];
    const Extent dl = dst_stride[static_cast<std::size_t>(d)];
    patterns[static_cast<std::size_t>(d)].for_each_piece(
        [&](const DimPiece& piece) {
          for (Extent j = 0; j < piece.len; ++j) {
            self(self, d + 1,
                 src_base + (piece.src_pos0 + j * piece.src_step) * sl,
                 dst_base + (piece.dst_pos0 + j * piece.dst_step) * dl);
          }
        });
  };
  emit(emit, 0, 0, 0);

  mapping::PeriodicSegments compiled = coalescer.finish();
  program.segments = std::move(compiled.segments);
  program.blocks = std::move(compiled.blocks);

#ifndef NDEBUG
  Extent covered = 0;
  program.for_each_segment([&](const CopySegment& s) { covered += s.len; });
  HPFC_ASSERT_MSG(covered == program.elements,
                  "segment program does not cover the transfer");
#endif
  return program;
}

}  // namespace hpfc::redist
