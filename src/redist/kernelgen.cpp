#include "redist/kernelgen.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace hpfc::redist {

namespace {

// ---- fragment bodies ----------------------------------------------------
//
// Each strided body is instantiated for a unit or a runtime stride per
// side: a unit stride compiles to memcpy; a runtime stride, read from the
// segment, compiles to a 4-wide unrolled loop the compiler can keep
// branch-free. A pack reads only the source stride and an unpack only the
// destination stride (the payload side is always contiguous).

template <bool UnitSrc>
void pack_body(const CopySegment* segs, std::size_t count, const double* src,
               double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    const Extent len = s.len;
    if constexpr (UnitSrc) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent st = s.src_stride;
      Extent j = 0;
      for (; j + 4 <= len; j += 4) {
        out[j] = in[j * st];
        out[j + 1] = in[(j + 1) * st];
        out[j + 2] = in[(j + 2) * st];
        out[j + 3] = in[(j + 3) * st];
      }
      for (; j < len; ++j) out[j] = in[j * st];
    }
    out += len;
  }
}

template <bool UnitDst>
void unpack_body(const CopySegment* segs, std::size_t count, const double* in,
                 double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    double* out = dst + s.dst_base;
    const Extent len = s.len;
    if constexpr (UnitDst) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent st = s.dst_stride;
      Extent j = 0;
      for (; j + 4 <= len; j += 4) {
        out[j * st] = in[j];
        out[(j + 1) * st] = in[j + 1];
        out[(j + 2) * st] = in[j + 2];
        out[(j + 3) * st] = in[j + 3];
      }
      for (; j < len; ++j) out[j * st] = in[j];
    }
    in += len;
  }
}

template <bool UnitSrc, bool UnitDst>
void copy_body(const CopySegment* segs, std::size_t count, const double* src,
               double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    double* out = dst + s.dst_base;
    const Extent len = s.len;
    if constexpr (UnitSrc && UnitDst) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent sst = UnitSrc ? 1 : s.src_stride;
      const Extent dst_st = UnitDst ? 1 : s.dst_stride;
      Extent j = 0;
      for (; j + 4 <= len; j += 4) {
        out[j * dst_st] = in[j * sst];
        out[(j + 1) * dst_st] = in[(j + 1) * sst];
        out[(j + 2) * dst_st] = in[(j + 2) * sst];
        out[(j + 3) * dst_st] = in[(j + 3) * sst];
      }
      for (; j < len; ++j) out[j * dst_st] = in[j * sst];
    }
  }
}

// Singleton segments (len == 1): the strides are irrelevant, so the whole
// span is one fully unrolled gather/scatter over the segment table.
void pack_singleton(const CopySegment* segs, std::size_t count,
                    const double* src, double* out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = src[segs[i].src_base];
}
void unpack_singleton(const CopySegment* segs, std::size_t count,
                      const double* in, double* dst) {
  for (std::size_t i = 0; i < count; ++i) dst[segs[i].dst_base] = in[i];
}
void copy_singleton(const CopySegment* segs, std::size_t count,
                    const double* src, double* dst) {
  for (std::size_t i = 0; i < count; ++i)
    dst[segs[i].dst_base] = src[segs[i].src_base];
}

// Small-count segments (2 <= len <= 4): a fully unrolled fallthrough
// switch per segment — no inner loop to set up for a handful of elements.
void pack_unrolled(const CopySegment* segs, std::size_t count,
                   const double* src, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    const Extent st = s.src_stride;
    switch (s.len) {
      case 4: out[3] = in[3 * st]; [[fallthrough]];
      case 3: out[2] = in[2 * st]; [[fallthrough]];
      default: out[1] = in[st]; out[0] = in[0];
    }
    out += s.len;
  }
}
void unpack_unrolled(const CopySegment* segs, std::size_t count,
                     const double* in, double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    double* out = dst + s.dst_base;
    const Extent st = s.dst_stride;
    switch (s.len) {
      case 4: out[3 * st] = in[3]; [[fallthrough]];
      case 3: out[2 * st] = in[2]; [[fallthrough]];
      default: out[st] = in[1]; out[0] = in[0];
    }
    in += s.len;
  }
}
void copy_unrolled(const CopySegment* segs, std::size_t count,
                   const double* src, double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    double* out = dst + s.dst_base;
    const Extent sst = s.src_stride;
    const Extent dst_st = s.dst_stride;
    switch (s.len) {
      case 4: out[3 * dst_st] = in[3 * sst]; [[fallthrough]];
      case 3: out[2 * dst_st] = in[2 * sst]; [[fallthrough]];
      default: out[dst_st] = in[sst]; out[0] = in[0];
    }
  }
}

// The periodic fragment: the outer loop over a block's repetitions,
// wrapped around one flat body that is a template argument and inlined
// (flatten), so a repetition costs no call and the body's segment loads
// can stay in registers across repetitions. Repetition k moves both data
// pointers by k steps; the payload order is the expansion order. Every
// span runs through it; a span of repetition-free blocks is one pass.
template <void (*Body)(const CopySegment*, std::size_t, const double*,
                       double*)>
[[gnu::flatten]] void periodic(const CopySegment* segs, std::size_t count,
                               Extent reps, Extent in_step, Extent out_step,
                               const double* in, double* out) {
  for (Extent k = 0; k < reps; ++k)
    Body(segs, count, in + k * in_step, out + k * out_step);
}

template <auto Pack, auto Unpack, auto Copy>
constexpr Fragment make_fragment(const char* name) {
  return Fragment{name, &periodic<Pack>, &periodic<Unpack>, &periodic<Copy>};
}

// ---- the catalog --------------------------------------------------------
//
// The strided cells are the {unit, runtime}^2 stride pairs: the A/B rows
// of bench_redist_kernels' `fragments` figure show no constant non-unit
// stride beating the runtime-stride body (docs/kernels.md).

constexpr Fragment kSingleton =
    make_fragment<&pack_singleton, &unpack_singleton, &copy_singleton>(
        "singleton");
constexpr Fragment kUnrolled =
    make_fragment<&pack_unrolled, &unpack_unrolled, &copy_unrolled>(
        "unrolled");
constexpr Fragment kMemcpy =
    make_fragment<&pack_body<true>, &unpack_body<true>,
                  &copy_body<true, true>>("memcpy");
constexpr Fragment kGather =
    make_fragment<&pack_body<false>, &unpack_body<true>,
                  &copy_body<false, true>>("gather");
constexpr Fragment kScatter =
    make_fragment<&pack_body<true>, &unpack_body<false>,
                  &copy_body<true, false>>("scatter");
constexpr Fragment kStrided =
    make_fragment<&pack_body<false>, &unpack_body<false>,
                  &copy_body<false, false>>("strided");

const Fragment* classify(const CopySegment& seg) {
  if (seg.len == 1) return &kSingleton;
  if (seg.len <= 4) return &kUnrolled;
  if (seg.src_stride == 1) return seg.dst_stride == 1 ? &kMemcpy : &kScatter;
  return seg.dst_stride == 1 ? &kGather : &kStrided;
}

// ---- round stencil gathers ----------------------------------------------
//
// One destination line of W lanes per period, lane j read from its own
// source pointer at the line's offset: the lanes are a template pack, so
// the body is W straight-line moves and the W pointers stay in registers.

template <std::size_t... J>
void gather_lanes(const double* const* src, double* dst, Extent periods,
                  Extent src_step, std::index_sequence<J...> /*lanes*/) {
  constexpr auto kWidth = static_cast<Extent>(sizeof...(J));
  const std::array<const double*, sizeof...(J)> s = {src[J]...};
  const Extent end = periods * kWidth;
  for (Extent o = 0, q = 0; o < end; o += kWidth, q += src_step)
    ((dst[o + static_cast<Extent>(J)] = s[J][q]), ...);
}

template <int W>
void gather_w(const double* const* src, double* dst, Extent periods,
              Extent src_step) {
  gather_lanes(src, dst, periods, src_step, std::make_index_sequence<W>{});
}

template <std::size_t... W>
constexpr std::array<GatherOp, sizeof...(W)> gather_table(
    std::index_sequence<W...> /*widths*/) {
  return {&gather_w<static_cast<int>(W) + 2>...};
}

// Widths 2 ... kMaxGatherWidth: a line one lane wide is a contiguous copy,
// which the per-pair pull's memcpy runs.
constexpr auto kGathers =
    gather_table(std::make_index_sequence<kMaxGatherWidth - 1>{});

constexpr std::array<std::string_view, 6 + kMaxGatherWidth> kCatalog = {
    "singleton",  "unrolled",   "memcpy",     "gather",     "scatter",
    "strided",    "periodic",   "gather_w2",  "gather_w3",  "gather_w4",
    "gather_w5",  "gather_w6",  "gather_w7",  "gather_w8",  "gather_w9",
    "gather_w10", "gather_w11", "gather_w12", "gather_w13", "gather_w14",
    "gather_w15", "gather_w16"};

}  // namespace

void Kernel::pack(std::span<const double> src_local,
                  std::span<double> out) const {
  HPFC_ASSERT(static_cast<Extent>(out.size()) == program_.elements);
  for (const KernelSpan& span : spans_)
    span.fragment->pack(program_.segments.data() + span.first, span.count,
                        span.reps, span.src_step, span.out_step,
                        src_local.data(), out.data() + span.out_offset);
}

void Kernel::unpack(std::span<const double> payload,
                    std::span<double> dst_local) const {
  HPFC_ASSERT(static_cast<Extent>(payload.size()) == program_.elements);
  for (const KernelSpan& span : spans_)
    span.fragment->unpack(program_.segments.data() + span.first, span.count,
                          span.reps, span.out_step, span.dst_step,
                          payload.data() + span.out_offset, dst_local.data());
}

void Kernel::copy(std::span<const double> src_local,
                  std::span<double> dst_local) const {
  for (const KernelSpan& span : spans_)
    span.fragment->copy(program_.segments.data() + span.first, span.count,
                        span.reps, span.src_step, span.dst_step,
                        src_local.data(), dst_local.data());
}

namespace {

/// One past the payload position of `span`'s last element.
Extent span_end(const KernelSpan& span) {
  return span.out_offset + (span.reps - 1) * span.out_step + span.elements;
}

/// Runs repetition `k` of `span` restricted to [lo, hi), positions
/// relative to the repetition's first payload position. Whole segments
/// run through the span's fragment, a maximal run per call; a segment the
/// range cuts is re-classified, since cutting can change its class (an
/// unrolled segment cut to one element is a singleton).
void copy_clipped(const CopySegment* segs, const KernelSpan& span, Extent k,
                  Extent lo, Extent hi, const double* src, double* dst) {
  src += k * span.src_step;
  dst += k * span.dst_step;
  const CopySegment* run = nullptr;
  std::size_t run_count = 0;
  const auto flush = [&] {
    if (run_count != 0) span.fragment->copy(run, run_count, 1, 0, 0, src, dst);
    run_count = 0;
  };
  Extent at = 0;
  for (std::uint32_t i = span.first; i < span.first + span.count && at < hi;
       ++i) {
    const CopySegment& seg = segs[i];
    const Extent a = std::max<Extent>(lo - at, 0);
    const Extent b = std::min<Extent>(hi - at, seg.len);
    at += seg.len;
    if (a >= b) continue;
    if (a == 0 && b == seg.len) {
      if (run_count == 0) run = &seg;
      ++run_count;
      continue;
    }
    flush();
    CopySegment part = seg;
    part.src_base += a * seg.src_stride;
    part.dst_base += a * seg.dst_stride;
    part.len = b - a;
    classify(part)->copy(&part, 1, 1, 0, 0, src, dst);
  }
  flush();
}

/// Runs `span` restricted to [lo, hi), positions relative to its
/// out_offset: the repetitions the range holds whole in one fragment
/// call, the at most two it cuts through copy_clipped.
void copy_span_range(const CopySegment* segs, const KernelSpan& span,
                     Extent lo, Extent hi, const double* src, double* dst) {
  // Repetition k covers [k*step, k*step + elements), and elements <= step
  // when reps > 1. A reps == 1 span the range touches is repetition 0.
  const Extent step = span.out_step;
  const Extent elements = span.elements;
  Extent first = lo < elements ? 0 : (lo - elements) / step + 1;
  Extent last = std::min(span.reps, (hi + step - 1) / step);
  const auto whole = [&](Extent k) {
    return k * step >= lo && k * step + elements <= hi;
  };
  if (first < last && !whole(first)) {
    copy_clipped(segs, span, first, lo - first * step, hi - first * step, src,
                 dst);
    ++first;
  }
  const bool clip_last = first < last && !whole(last - 1);
  if (clip_last) --last;
  if (first < last)
    span.fragment->copy(segs + span.first, span.count, last - first,
                        span.src_step, span.dst_step,
                        src + first * span.src_step,
                        dst + first * span.dst_step);
  if (clip_last)
    copy_clipped(segs, span, last, lo - last * step, hi - last * step, src,
                 dst);
}

}  // namespace

void Kernel::copy_range(std::span<const double> src_local,
                        std::span<double> dst_local, Extent lo,
                        Extent hi) const {
  HPFC_ASSERT(0 <= lo && lo <= hi && hi <= program_.elements);
  if (lo == 0 && hi == program_.elements) return copy(src_local, dst_local);
  // Span ends ascend in payload order, so the first span the range
  // touches is found by bisection; the walk stops at the first span that
  // starts at or past hi.
  auto it = std::partition_point(
      spans_.begin(), spans_.end(),
      [lo](const KernelSpan& span) { return span_end(span) <= lo; });
  for (; it != spans_.end() && it->out_offset < hi; ++it)
    copy_span_range(program_.segments.data(), *it, lo - it->out_offset,
                    hi - it->out_offset, src_local.data(), dst_local.data());
}

std::string Kernel::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    os << (i == 0 ? "" : "+");
    if (spans_[i].reps == 1)
      os << spans_[i].fragment->name;
    else
      os << "periodic(" << spans_[i].fragment->name << ")";
  }
  return os.str();
}

Kernel specialize(SegmentProgram program) {
  Kernel kernel;
  kernel.program_ = std::move(program);
  const std::vector<CopySegment>& segments = kernel.program_.segments;
  Extent offset = 0;
  for (const SegmentBlock& block : kernel.program_.blocks) {
    Extent body_elements = 0;
    for (std::uint32_t i = block.first; i < block.first + block.count; ++i)
      body_elements += segments[i].len;
    // A span continues the previous one when the fragment matches and the
    // segments are adjacent: anywhere among consecutive reps == 1 blocks,
    // only within one repeated block.
    const std::size_t block_spans = kernel.spans_.size();
    Extent inner = 0;
    for (std::uint32_t i = block.first; i < block.first + block.count; ++i) {
      const Fragment* fragment = classify(segments[i]);
      bool stitch = false;
      if (!kernel.spans_.empty()) {
        const KernelSpan& last = kernel.spans_.back();
        stitch = last.fragment == fragment && last.first + last.count == i &&
                 (block.reps == 1 ? last.reps == 1
                                  : kernel.spans_.size() > block_spans);
      }
      if (!stitch)
        kernel.spans_.push_back({fragment, i, 0, offset + inner, 0,
                                 block.reps, block.src_step, block.dst_step,
                                 body_elements});
      ++kernel.spans_.back().count;
      kernel.spans_.back().elements += segments[i].len;
      inner += segments[i].len;
    }
    offset += body_elements * block.reps;
  }
  HPFC_ASSERT(offset == kernel.program_.elements);
  return kernel;
}

std::span<const std::string_view> fragment_catalog() { return kCatalog; }

GatherOp gather_fragment(int width) {
  HPFC_ASSERT(width >= 2 && width <= kMaxGatherWidth);
  return kGathers[static_cast<std::size_t>(width - 2)];
}

}  // namespace hpfc::redist
