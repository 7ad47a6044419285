#include "redist/kernelgen.hpp"

#include <array>
#include <cstring>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace hpfc::redist {

namespace {

// ---- fragment bodies ----------------------------------------------------
//
// Each strided body is instantiated over a (src_stride, dst_stride) pair
// of compile-time constants; the sentinel 0 means "read the stride from
// the segment" (the runtime fallback). A constant unit stride compiles to
// memcpy; other constant strides compile to a 4-wide unrolled loop the
// compiler can keep branch-free and vectorize.

template <Extent S>
inline Extent stride_of(Extent runtime_stride) {
  if constexpr (S == 0) return runtime_stride;
  return S;
}

template <Extent SS, Extent DS>
void pack_body(const CopySegment* segs, std::size_t count, const double* src,
               double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    const Extent len = s.len;
    if constexpr (SS == 1) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent st = stride_of<SS>(s.src_stride);
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

template <Extent SS, Extent DS>
void unpack_body(const CopySegment* segs, std::size_t count, const double* in,
                 double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    double* out = dst + s.dst_base;
    const Extent len = s.len;
    if constexpr (DS == 1) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent st = stride_of<DS>(s.dst_stride);
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

template <Extent SS, Extent DS>
void copy_body(const CopySegment* segs, std::size_t count, const double* src,
               double* dst) {
  for (std::size_t i = 0; i < count; ++i) {
    const CopySegment& s = segs[i];
    const double* in = src + s.src_base;
    double* out = dst + s.dst_base;
    const Extent len = s.len;
    if constexpr (SS == 1 && DS == 1) {
      std::memcpy(out, in, static_cast<std::size_t>(len) * sizeof(double));
    } else {
      const Extent sst = stride_of<SS>(s.src_stride);
      const Extent dst_st = stride_of<DS>(s.dst_stride);
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

// ---- the catalog --------------------------------------------------------

/// Stride values with dedicated template instantiations; index 6 (value 0)
/// is the runtime-stride fallback. {2, 3, 4, 8, 16} cover the block <->
/// cyclic(k) remapping shapes of the paper's workloads at common machine
/// sizes; anything else reads its strides from the segment table.
constexpr std::array<Extent, 7> kStrideValues = {1, 2, 3, 4, 8, 16, 0};

constexpr const char* fragment_name(Extent ss, Extent ds) {
  if (ss == 1 && ds == 1) return "memcpy";
  if (ss == 0 || ds == 0) return "strided_any";
  if (ds == 1) return "gather_const";
  if (ss == 1) return "scatter_const";
  return "strided_const";
}

template <std::size_t I, std::size_t J>
constexpr Fragment make_strided_fragment() {
  constexpr Extent SS = kStrideValues[I];
  constexpr Extent DS = kStrideValues[J];
  return Fragment{fragment_name(SS, DS), &pack_body<SS, DS>,
                  &unpack_body<SS, DS>, &copy_body<SS, DS>};
}

template <std::size_t I, std::size_t... Js>
constexpr std::array<Fragment, sizeof...(Js)> make_strided_row(
    std::index_sequence<Js...>) {
  return {make_strided_fragment<I, Js>()...};
}

template <std::size_t... Is>
constexpr std::array<std::array<Fragment, kStrideValues.size()>, sizeof...(Is)>
make_strided_table(std::index_sequence<Is...>) {
  return {make_strided_row<Is>(
      std::make_index_sequence<kStrideValues.size()>{})...};
}

constexpr auto kStridedTable =
    make_strided_table(std::make_index_sequence<kStrideValues.size()>{});

constexpr Fragment kSingleton{"singleton", &pack_singleton, &unpack_singleton,
                              &copy_singleton};
constexpr Fragment kUnrolled{"unrolled", &pack_unrolled, &unpack_unrolled,
                             &copy_unrolled};

constexpr std::size_t stride_index(Extent stride) {
  for (std::size_t i = 0; i + 1 < kStrideValues.size(); ++i)
    if (kStrideValues[i] == stride) return i;
  return kStrideValues.size() - 1;  // runtime fallback
}

const Fragment* classify(const CopySegment& seg) {
  if (seg.len == 1) return &kSingleton;
  if (seg.len <= 4) return &kUnrolled;
  return &kStridedTable[stride_index(seg.src_stride)]
                       [stride_index(seg.dst_stride)];
}

constexpr std::array<std::string_view, 7> kCatalog = {
    "singleton",   "unrolled",    "memcpy",     "gather_const",
    "scatter_const", "strided_const", "strided_any"};

}  // namespace

void Kernel::pack(std::span<const double> src_local,
                  std::span<double> out) const {
  HPFC_ASSERT(static_cast<Extent>(out.size()) == program_.elements);
  for (const KernelSpan& span : spans_) {
    span.fragment->pack(program_.segments.data() + span.first, span.count,
                        src_local.data(), out.data() + span.out_offset);
  }
}

void Kernel::unpack(std::span<const double> payload,
                    std::span<double> dst_local) const {
  HPFC_ASSERT(static_cast<Extent>(payload.size()) == program_.elements);
  for (const KernelSpan& span : spans_) {
    span.fragment->unpack(program_.segments.data() + span.first, span.count,
                          payload.data() + span.out_offset, dst_local.data());
  }
}

void Kernel::copy(std::span<const double> src_local,
                  std::span<double> dst_local) const {
  for (const KernelSpan& span : spans_) {
    span.fragment->copy(program_.segments.data() + span.first, span.count,
                        src_local.data(), dst_local.data());
  }
}

std::uint64_t Kernel::footprint_bytes() const {
  return static_cast<std::uint64_t>(program_.segments.capacity()) *
             sizeof(CopySegment) +
         static_cast<std::uint64_t>(spans_.capacity()) * sizeof(KernelSpan);
}

std::string Kernel::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    os << (i == 0 ? "" : "+") << spans_[i].fragment->name;
  return os.str();
}

Kernel specialize(SegmentProgram program) {
  Kernel kernel;
  kernel.program_ = std::move(program);
  const std::vector<CopySegment>& segments = kernel.program_.segments;
  Extent offset = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Fragment* fragment = classify(segments[i]);
    if (kernel.spans_.empty() ||
        kernel.spans_.back().fragment != fragment) {
      kernel.spans_.push_back(
          {fragment, static_cast<std::uint32_t>(i), 0, offset});
    }
    ++kernel.spans_.back().count;
    offset += segments[i].len;
  }
  HPFC_ASSERT(offset == kernel.program_.elements);
  return kernel;
}

std::span<const std::string_view> fragment_catalog() { return kCatalog; }

}  // namespace hpfc::redist
