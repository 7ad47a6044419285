// The wide line bodies of the value kernels (runtime/expected.hpp): fold,
// stamp and matches' stamped-window compare over eight lanes, compiled for
// AVX-512F/DQ/VL and dispatched to only when wide_lanes() says the CPU has
// them. Each is plain C++ over 8-element lane arrays that the compiler
// vectorizes: a lane's residue steps by eight elements' worth with an add
// and an unsigned min (the conditional subtract), the checksum's
// double -> int64 conversion and the stamp's int64 -> double one are the
// same casts the narrow bodies make (vcvttpd2qq / vcvtqq2pd), and the
// checksum's multiply is the wrapping 64-bit one (vpmullq), so both bodies
// produce bit-identical sums and stores. A line's last count mod 8
// elements run the narrow body from the residue the lanes stopped at.
#include "runtime/expected.hpp"

#if HPFC_WIDE_VALUE_KERNELS

#include <algorithm>

namespace hpfc::runtime::detail {
namespace {

constexpr int kLanes = 8;

using WeightStep = ResidueStep<kWeightMod>;
using StampStep = ResidueStep<kStampMod>;

#define HPFC_WIDE_TARGET gnu::target("avx512f,avx512dq,avx512vl")

/// r + d mod M for r, d in [0, M), as an unsigned min: r + d - M wraps
/// above r + d exactly when r + d < M.
template <std::uint64_t M>
[[HPFC_WIDE_TARGET]] inline std::uint64_t add_mod_min(std::uint64_t r,
                                                      std::uint64_t d) {
  const std::uint64_t n = r + d;
  return std::min(n, n - M);
}

/// The lanes' first residues r + k*one mod M, k in [0, 8), and their
/// step, eight elements' worth.
template <std::uint64_t M>
struct Lanes {
  std::uint64_t r[kLanes];
  std::uint64_t eight;

  [[HPFC_WIDE_TARGET]] Lanes(std::uint64_t first, const ResidueStep<M>& step)
      : eight(add_mod<M>(step.four, step.four)) {
    r[0] = first;
    for (int k = 1; k < kLanes; ++k) r[k] = add_mod<M>(r[k - 1], step.one);
  }
};

template <bool kUnit>
[[HPFC_WIDE_TARGET]] std::uint64_t fold_lanes(const double* vals,
                                              mapping::Extent stride,
                                              mapping::Extent count,
                                              std::uint64_t r,
                                              const WeightStep& step) {
  Lanes<kWeightMod> lanes(r, step);
  std::uint64_t sum[kLanes] = {};
  mapping::Extent j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    const double* v = vals + j * stride;
    for (int k = 0; k < kLanes; ++k) {
      sum[k] += checksum_value(v[kUnit ? k : k * stride]) * (lanes.r[k] + 1);
      lanes.r[k] = add_mod_min<kWeightMod>(lanes.r[k], lanes.eight);
    }
  }
  std::uint64_t total = 0;
  for (int k = 0; k < kLanes; ++k) total += sum[k];
  return total + fold_line_narrow(vals + j * stride, stride, count - j,
                                  lanes.r[0], step);
}

template <bool kUnit>
[[HPFC_WIDE_TARGET]] void stamp_lanes(double* vals, mapping::Extent stride,
                                      mapping::Extent count, std::uint64_t s,
                                      const StampStep& step,
                                      std::uint64_t counter_base) {
  Lanes<kStampMod> lanes(s, step);
  mapping::Extent j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    double* v = vals + j * stride;
    for (int k = 0; k < kLanes; ++k) {
      v[kUnit ? k : k * stride] = stamp_value(counter_base, lanes.r[k]);
      lanes.r[k] = add_mod_min<kStampMod>(lanes.r[k], lanes.eight);
    }
  }
  stamp_line_narrow(vals + j * stride, stride, count - j, lanes.r[0], step,
                    counter_base);
}

}  // namespace

bool wide_lanes() {
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
}

[[HPFC_WIDE_TARGET]] std::uint64_t fold_line_wide(const double* vals,
                                                  mapping::Extent stride,
                                                  mapping::Extent count,
                                                  std::uint64_t r,
                                                  const WeightStep& step) {
  return stride == 1 ? fold_lanes<true>(vals, 1, count, r, step)
                     : fold_lanes<false>(vals, stride, count, r, step);
}

[[HPFC_WIDE_TARGET]] void stamp_line_wide(double* vals, mapping::Extent stride,
                                          mapping::Extent count,
                                          std::uint64_t s,
                                          const StampStep& step,
                                          std::uint64_t counter_base) {
  if (stride == 1)
    stamp_lanes<true>(vals, 1, count, s, step, counter_base);
  else
    stamp_lanes<false>(vals, stride, count, s, step, counter_base);
}

[[HPFC_WIDE_TARGET]] bool stamped_window_wide(const double* vals,
                                              mapping::Extent count,
                                              std::uint64_t s,
                                              const StampStep& step,
                                              std::uint64_t counter_base) {
  Lanes<kStampMod> lanes(s, step);
  std::uint64_t differ[kLanes] = {};
  mapping::Extent j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    for (int k = 0; k < kLanes; ++k) {
      differ[k] |= vals[j + k] != stamp_value(counter_base, lanes.r[k]);
      lanes.r[k] = add_mod_min<kStampMod>(lanes.r[k], lanes.eight);
    }
  }
  std::uint64_t any = 0;
  for (int k = 0; k < kLanes; ++k) any |= differ[k];
  return any == 0 && stamped_window_narrow(vals + j, count - j, lanes.r[0],
                                           step, counter_base);
}

#undef HPFC_WIDE_TARGET

}  // namespace hpfc::runtime::detail

#endif  // HPFC_WIDE_VALUE_KERNELS
