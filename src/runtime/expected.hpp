// The value semantics every run is checked against. A write to an array
// stamps each element with a deterministic value derived from a write
// counter; a read folds the elements into an order-independent checksum.
// After a write, §4.3's live regions and kills only ever zero elements,
// so an array's expected values are a closed form of three facts: its
// last write's counter, the intersection of the live boxes asserted
// since, and whether a kill (or an empty intersection) made it dead.
// ExpectedValues is that descriptor: O(dims) state per array instead of
// a shadow copy of its elements, in the spirit of symbolic loop
// compilation's describe-by-bounds iteration sets.
//
// weight() and stamped() define the values one element at a time. The
// value kernels (fold, stamp, matches) compute the same sums, stores and
// comparisons over a rank's owned stretches without a division in any
// loop: along a stretch of stride s the weight's residue linear*K mod P
// moves by s*K mod P and the stamp's residue linear mod 997 by s mod 997,
// so each element costs an add and a conditional subtract. A kernel walks
// an OwnedProgram two levels deep, body entry then block repetition,
// setting up each body entry's steps once per block. fold and stamp are
// order-independent, so they walk a body entry along its longer axis:
// its stretch, or one member across the block's repetitions. The stepping
// is exact while linear*K does not wrap 64 bits, i.e. for linear <=
// kMaxSteppedLinear; the runtime and the reference interpreter check
// every mapped array against that bound when they are constructed
// (require_stepped_weights).
//
// Each line runs through one of two bodies that give bit-identical
// results. The narrow body, inline below, runs four independent scalar
// lanes while four or more elements remain. The wide body
// (runtime/expected.cpp) runs eight lanes in AVX-512 vectors: the same
// int64 conversions, wrapping 64-bit multiply and residue steps, eight
// elements at a time, the last count mod 8 through the narrow body. One
// dispatch picks per line: the wide body when the line has at least
// kWideMinLine elements and the CPU has AVX-512F, DQ and VL, asked once
// per process (wide_lanes()); the narrow body otherwise, and always on
// targets other than x86-64 with GCC or clang, where the wide body is
// not compiled. The threshold comes from bench_redist_kernels'
// value_lines rows: the wide body's set-up makes it the slower one on
// lines of 24, the two tie on lines of 32, the wide one is ahead by a
// fifth from 48, and it reads 2-3.5x the narrow one's speed on long
// lines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"
#include "mapping/shape.hpp"
#include "support/check.hpp"

// The wide bodies are compiled where the compiler can target AVX-512 per
// function and ask the CPU for it: GCC or clang on x86-64.
#if defined(__x86_64__) && defined(__GNUC__)
#define HPFC_WIDE_VALUE_KERNELS 1
#else
#define HPFC_WIDE_VALUE_KERNELS 0
#endif

namespace hpfc::runtime {

/// The read-checksum weight's multiplier and modulus, and the stamp's
/// counter multiplier and modulus.
inline constexpr std::uint64_t kWeightMul = 2654435761ULL;
inline constexpr std::uint64_t kWeightMod = 1000003ULL;
inline constexpr std::uint64_t kStampMul = 1009ULL;
inline constexpr std::uint64_t kStampMod = 997ULL;

/// Deterministic, order-independent read-checksum weight.
constexpr std::uint64_t weight(std::int64_t linear) {
  return (static_cast<std::uint64_t>(linear) * kWeightMul) % kWeightMod + 1;
}

/// Value stamped by the `counter`-th write event at element `linear`.
constexpr double stamped(std::uint64_t counter, std::int64_t linear) {
  const auto mod = static_cast<std::int64_t>(kStampMod);
  return static_cast<double>(counter * kStampMul +
                             static_cast<std::uint64_t>(linear % mod));
}

/// The largest linear index whose weight the kernels step exactly:
/// weight() multiplies in wrapping 64-bit arithmetic, the kernels step
/// the exact residue, and the two agree while linear*K < 2^64.
inline constexpr std::int64_t kMaxSteppedLinear =
    static_cast<std::int64_t>(~std::uint64_t{0} / kWeightMul);

/// Fails loudly unless every element of `shape` has a linear index the
/// kernels fold exactly.
inline void require_stepped_weights(const mapping::Shape& shape) {
  HPFC_ASSERT_MSG(shape.total() - 1 <= kMaxSteppedLinear,
                  "array of " + std::to_string(shape.total()) +
                      " elements exceeds the checksum's exact range");
}

/// One [lo, hi) interval per array dimension (the shape of ir::Region).
using Box = std::vector<std::pair<mapping::Extent, mapping::Extent>>;

/// The members [j_lo, j_hi) of `run` whose coordinates lie inside `box`.
/// A stretch varies only the innermost dimension (mapping::OwnedRun), so
/// the outer coordinates are peeled off global_base once and the inner
/// window is clipped in closed form. Allocates nothing.
[[nodiscard]] inline std::pair<mapping::Extent, mapping::Extent> clip_stretch(
    const mapping::Shape& shape,
    std::span<const std::pair<mapping::Extent, mapping::Extent>> box,
    const mapping::OwnedRun& run) {
  using mapping::Extent;
  const std::vector<Extent>& extents = shape.extents();
  const auto dims = extents.size();
  mapping::Index rest = run.global_base;
  const mapping::Index c0 = rest % extents[dims - 1];
  rest /= extents[dims - 1];
  for (std::size_t d = dims - 1; d-- > 0;) {
    const mapping::Index c = rest % extents[d];
    rest /= extents[d];
    if (c < box[d].first || c >= box[d].second) return {0, 0};
  }
  const auto [lo, hi] = box[dims - 1];
  const Extent st = run.global_stride;
  // First member inside and first member past the inner window.
  const Extent j_lo = std::clamp<Extent>(
      lo <= c0 ? 0 : (lo - c0 + st - 1) / st, 0, run.len);
  const Extent j_hi = std::clamp<Extent>(
      hi <= c0 ? 0 : (hi - c0 + st - 1) / st, 0, run.len);
  return {j_lo, std::max(j_lo, j_hi)};
}

/// The expected values of one mapped array: element i reads
/// stamped(counter, i) inside `box` and 0 outside it, or everywhere
/// while `dead`. Every array starts dead (dummies arrive zero-filled).
/// The box is sized once, so updates allocate nothing.
struct ExpectedValues {
  std::uint64_t counter = 0;
  bool dead = true;
  Box box;

  explicit ExpectedValues(const mapping::Shape& shape)
      : box(static_cast<std::size_t>(shape.rank())) {}

  /// A write stamps every element: the box becomes the whole shape.
  void write(std::uint64_t write_counter, const mapping::Shape& shape) {
    counter = write_counter;
    dead = false;
    for (std::size_t d = 0; d < box.size(); ++d)
      box[d] = {0, shape.extents()[d]};
  }

  /// A live region zeroes everything outside `region`; an empty
  /// intersection leaves nothing alive.
  void live(std::span<const std::pair<mapping::Extent, mapping::Extent>>
                region) {
    if (dead) return;
    for (std::size_t d = 0; d < box.size(); ++d) {
      box[d].first = std::max(box[d].first, region[d].first);
      box[d].second = std::min(box[d].second, region[d].second);
      if (box[d].first >= box[d].second) dead = true;
    }
  }

  void kill() { dead = true; }

  /// Whether every element holds its stamped value: alive, and no live
  /// region has narrowed the box below the whole shape.
  [[nodiscard]] bool whole(const mapping::Shape& shape) const {
    if (dead) return false;
    for (std::size_t d = 0; d < box.size(); ++d)
      if (box[d].first != 0 || box[d].second != shape.extents()[d])
        return false;
    return true;
  }

  /// The members of `run` that hold stamped values; the rest read 0.
  [[nodiscard]] std::pair<mapping::Extent, mapping::Extent> stamped_members(
      const mapping::Shape& shape, const mapping::OwnedRun& run) const {
    if (dead) return {0, 0};
    return clip_stretch(shape, box, run);
  }
};

// ---- value kernels -------------------------------------------------------

namespace detail {

/// x*mul mod m in exact arithmetic, for any sign of x.
constexpr std::uint64_t residue(std::int64_t x, std::uint64_t mul,
                                std::uint64_t m) {
  const auto mod = static_cast<std::int64_t>(m);
  return static_cast<std::uint64_t>(floor_mod(x, mod)) * (mul % m) % m;
}

/// r + d mod M for r, d in [0, M): the add and conditional subtract that
/// is every kernel's per-element step.
template <std::uint64_t M>
constexpr std::uint64_t add_mod(std::uint64_t r, std::uint64_t d) {
  r += d;
  return r >= M ? r - M : r;
}

/// How a residue mod M moves along a line of one stride: by one element,
/// and by two, three and four (the lane offsets and the lane step).
template <std::uint64_t M>
struct ResidueStep {
  std::uint64_t one;
  std::uint64_t two;
  std::uint64_t three;
  std::uint64_t four;

  constexpr ResidueStep(mapping::Extent stride, std::uint64_t mul)
      : one(residue(stride, mul, M)),
        two(add_mod<M>(one, one)),
        three(add_mod<M>(two, one)),
        four(add_mod<M>(three, one)) {}
};

/// Calls fn(lane, j, r_j) for j in [0, count), where r_j = r + j*step
/// mod M: four independent lanes (lane = j mod 4, a std::integral_constant,
/// each stepped by `four`) while four elements remain, then lane 0 one
/// element at a time. The steps are copied to locals so that stores in fn
/// cannot force reloads.
template <std::uint64_t M, typename Fn>
inline void for_each_residue(mapping::Extent count, std::uint64_t r,
                             const ResidueStep<M>& step, Fn&& fn) {
  using Lane0 = std::integral_constant<int, 0>;
  const std::uint64_t one = step.one;
  const std::uint64_t four = step.four;
  mapping::Extent j = 0;
  if (count >= 4) {
    std::uint64_t r1 = add_mod<M>(r, one);
    std::uint64_t r2 = add_mod<M>(r, step.two);
    std::uint64_t r3 = add_mod<M>(r, step.three);
    for (; j + 4 <= count; j += 4) {
      fn(Lane0{}, j, r);
      fn(std::integral_constant<int, 1>{}, j + 1, r1);
      fn(std::integral_constant<int, 2>{}, j + 2, r2);
      fn(std::integral_constant<int, 3>{}, j + 3, r3);
      r = add_mod<M>(r, four);
      r1 = add_mod<M>(r1, four);
      r2 = add_mod<M>(r2, four);
      r3 = add_mod<M>(r3, four);
    }
  }
  for (; j < count; ++j) {
    fn(Lane0{}, j, r);
    r = add_mod<M>(r, one);
  }
}

/// Walks `prog` body entry by body entry. A body entry of a block is a
/// grid of reps x len elements, arithmetic in local position and in
/// residue along both axes: a row is one repetition's stretch, a column
/// one member across the repetitions. Calls fn(local, local_stride,
/// count, r, step) for every line along the longer axis, so short
/// stretches repeated many times (cyclic(2)'s two members per window)
/// still run long lanes; r is the line's first residue of linear*mul
/// mod M. The residues and steps are set up once per body entry per
/// block. Only order-independent kernels may walk columns.
template <std::uint64_t M, typename Fn>
inline void for_each_line(const mapping::OwnedProgram& prog,
                          std::uint64_t mul, Fn&& fn) {
  for (const mapping::SegmentBlock& b : prog.blocks) {
    const ResidueStep<M> rep(b.dst_step, mul);
    for (std::uint32_t i = b.first; i < b.first + b.count; ++i) {
      const mapping::OwnedRun& run = prog.body[i];
      const ResidueStep<M> step(run.global_stride, mul);
      std::uint64_t r = residue(run.global_base, mul, M);
      mapping::Index local = run.local_base;
      if (b.reps > run.len) {
        for (mapping::Extent j = 0; j < run.len; ++j, ++local) {
          fn(local, b.src_step, b.reps, r, rep);
          r = add_mod<M>(r, step.one);
        }
      } else {
        for (mapping::Extent k = 0; k < b.reps; ++k, local += b.src_step) {
          fn(local, mapping::Extent{1}, run.len, r, step);
          r = add_mod<M>(r, rep.one);
        }
      }
    }
  }
}

/// A stored value as the checksum multiplies it. Stored values are
/// stamped integers in [0, 2^53), where the int64 conversion (one
/// instruction) equals the uint64 one weight() is defined with.
inline std::uint64_t checksum_value(double v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

/// The value stamped at an element whose stamp residue is s.
inline double stamp_value(std::uint64_t counter_base, std::uint64_t s) {
  return static_cast<double>(static_cast<std::int64_t>(counter_base + s));
}

/// Σ vals[j*stride]·(r_j + 1) over a line: weight = residue + 1. The
/// narrow body, four lanes wide.
inline std::uint64_t fold_line_narrow(const double* vals,
                                      mapping::Extent stride,
                                      mapping::Extent count, std::uint64_t r,
                                      const ResidueStep<kWeightMod>& step) {
  std::uint64_t lane_sum[4] = {0, 0, 0, 0};
  for_each_residue<kWeightMod>(
      count, r, step, [&](auto lane, mapping::Extent j, std::uint64_t rj) {
        lane_sum[lane] += checksum_value(vals[j * stride]) * (rj + 1);
      });
  return lane_sum[0] + lane_sum[1] + lane_sum[2] + lane_sum[3];
}

/// vals[j*stride] = the value stamped at residue s_j: the narrow body.
inline void stamp_line_narrow(double* vals, mapping::Extent stride,
                              mapping::Extent count, std::uint64_t s,
                              const ResidueStep<kStampMod>& step,
                              std::uint64_t counter_base) {
  for_each_residue<kStampMod>(
      count, s, step, [&](auto, mapping::Extent j, std::uint64_t sj) {
        vals[j * stride] = stamp_value(counter_base, sj);
      });
}

/// Whether vals[j] holds the value stamped at residue s_j for every j in
/// [0, count): matches' stamped-window compare, the narrow body.
inline bool stamped_window_narrow(const double* vals, mapping::Extent count,
                                  std::uint64_t s,
                                  const ResidueStep<kStampMod>& step,
                                  std::uint64_t counter_base) {
  bool ok = true;
  for_each_residue<kStampMod>(
      count, s, step, [&](auto, mapping::Extent j, std::uint64_t sj) {
        ok &= vals[j] == stamp_value(counter_base, sj);
      });
  return ok;
}

#if HPFC_WIDE_VALUE_KERNELS
/// Lines at least this long take the wide body when the CPU has it.
inline constexpr mapping::Extent kWideMinLine = 32;

/// Whether this CPU runs the wide bodies (AVX-512F, DQ and VL), asked
/// once per process.
[[nodiscard]] bool wide_lanes();

/// The wide bodies (runtime/expected.cpp): the same results as the
/// narrow ones, eight lanes at a time. Only callable when wide_lanes().
[[nodiscard]] std::uint64_t fold_line_wide(
    const double* vals, mapping::Extent stride, mapping::Extent count,
    std::uint64_t r, const ResidueStep<kWeightMod>& step);
void stamp_line_wide(double* vals, mapping::Extent stride,
                     mapping::Extent count, std::uint64_t s,
                     const ResidueStep<kStampMod>& step,
                     std::uint64_t counter_base);
[[nodiscard]] bool stamped_window_wide(const double* vals,
                                       mapping::Extent count, std::uint64_t s,
                                       const ResidueStep<kStampMod>& step,
                                       std::uint64_t counter_base);

/// The one dispatch of every line: wide when it is long enough and the
/// CPU has the lanes, narrow otherwise.
inline bool goes_wide(mapping::Extent count) {
  return count >= kWideMinLine && wide_lanes();
}
#else
inline bool wide_lanes() { return false; }
#endif

/// Which bodies a kernel runs its lines through: the dispatch's choice
/// per line, or the narrow body on every line (all a CPU without the
/// lanes runs; the microbench's baseline).
enum class Bodies { dispatch, narrow };

template <Bodies B>
inline std::uint64_t fold_line(const double* vals, mapping::Extent stride,
                               mapping::Extent count, std::uint64_t r,
                               const ResidueStep<kWeightMod>& step) {
#if HPFC_WIDE_VALUE_KERNELS
  if (B == Bodies::dispatch && goes_wide(count))
    return fold_line_wide(vals, stride, count, r, step);
#endif
  return fold_line_narrow(vals, stride, count, r, step);
}

template <Bodies B>
inline void stamp_line(double* vals, mapping::Extent stride,
                       mapping::Extent count, std::uint64_t s,
                       const ResidueStep<kStampMod>& step,
                       std::uint64_t counter_base) {
#if HPFC_WIDE_VALUE_KERNELS
  if (B == Bodies::dispatch && goes_wide(count)) {
    stamp_line_wide(vals, stride, count, s, step, counter_base);
    return;
  }
#endif
  stamp_line_narrow(vals, stride, count, s, step, counter_base);
}

template <Bodies B>
inline bool stamped_window(const double* vals, mapping::Extent count,
                           std::uint64_t s, const ResidueStep<kStampMod>& step,
                           std::uint64_t counter_base) {
#if HPFC_WIDE_VALUE_KERNELS
  if (B == Bodies::dispatch && goes_wide(count))
    return stamped_window_wide(vals, count, s, step, counter_base);
#endif
  return stamped_window_narrow(vals, count, s, step, counter_base);
}

}  // namespace detail

/// Σ vals[j]·weight(global_base + j·stride) over j in [0, len): the flat
/// form over one stretch.
[[nodiscard, gnu::flatten]] inline std::uint64_t fold(
    const double* vals, mapping::Index global_base, mapping::Extent stride,
    mapping::Extent len) {
  return detail::fold_line<detail::Bodies::dispatch>(
      vals, 1, len, detail::residue(global_base, kWeightMul, kWeightMod),
      detail::ResidueStep<kWeightMod>(stride, kWeightMul));
}

/// Σ value·weight(global) over every stretch of a rank's ownership
/// program `prog`, read from the rank's storage `local`.
template <detail::Bodies B = detail::Bodies::dispatch>
[[nodiscard, gnu::flatten]] inline std::uint64_t fold(
    const mapping::OwnedProgram& prog, const double* local) {
  std::uint64_t sum = 0;
  detail::for_each_line<kWeightMod>(
      prog, kWeightMul,
      [&](mapping::Index at, mapping::Extent stride, mapping::Extent count,
          std::uint64_t r, const detail::ResidueStep<kWeightMod>& step) {
        sum += detail::fold_line<B>(local + at, stride, count, r, step);
      });
  return sum;
}

/// vals[j] = stamped(counter, global_base + j·stride) for j in [0, len):
/// the flat form over one stretch.
[[gnu::flatten]] inline void stamp(double* vals, mapping::Index global_base,
                                   mapping::Extent stride, mapping::Extent len,
                                   std::uint64_t counter) {
  detail::stamp_line<detail::Bodies::dispatch>(
      vals, 1, len, detail::residue(global_base, 1, kStampMod),
      detail::ResidueStep<kStampMod>(stride, 1), counter * kStampMul);
}

/// Stamps every stretch of `prog` in the rank's storage `local` with the
/// `counter`-th write's values.
template <detail::Bodies B = detail::Bodies::dispatch>
[[gnu::flatten]] inline void stamp(const mapping::OwnedProgram& prog,
                                   double* local, std::uint64_t counter) {
  const std::uint64_t counter_base = counter * kStampMul;
  detail::for_each_line<kStampMod>(
      prog, 1,
      [&](mapping::Index at, mapping::Extent stride, mapping::Extent count,
          std::uint64_t s, const detail::ResidueStep<kStampMod>& step) {
        detail::stamp_line<B>(local + at, stride, count, s, step, counter_base);
      });
}

/// Whether every stretch of `prog` in the rank's storage `local` holds
/// `expected`'s values: each stretch's stamped members [j_lo, j_hi)
/// (clip_stretch) hold stamped(counter, global), and [0, j_lo) and
/// [j_hi, len) hold 0. Walks stretch by stretch, since the clip is per
/// stretch, and stops at the first one that differs. The clip divides,
/// so it runs only when a live region has narrowed the box.
template <detail::Bodies B = detail::Bodies::dispatch>
[[nodiscard, gnu::flatten]] inline bool matches(
    const mapping::OwnedProgram& prog, const double* local,
    const mapping::Shape& shape, const ExpectedValues& expected) {
  using Step = detail::ResidueStep<kStampMod>;
  const std::uint64_t counter_base = expected.counter * kStampMul;
  const bool whole = expected.whole(shape);
  for (const mapping::SegmentBlock& b : prog.blocks) {
    const Step rep(b.dst_step, 1);
    for (std::uint32_t i = b.first; i < b.first + b.count; ++i) {
      mapping::OwnedRun run = prog.body[i];
      const Step step(run.global_stride, 1);
      std::uint64_t s = detail::residue(run.global_base, 1, kStampMod);
      for (mapping::Extent k = 0; k < b.reps; ++k) {
        const double* vals = local + run.local_base;
        const auto [j_lo, j_hi] =
            whole ? std::pair<mapping::Extent, mapping::Extent>{0, run.len}
                  : expected.stamped_members(shape, run);
        const std::uint64_t s_lo = detail::add_mod<kStampMod>(
            s, static_cast<std::uint64_t>(j_lo) % kStampMod * step.one %
                   kStampMod);
        bool ok = true;
        for (mapping::Extent j = 0; j < j_lo; ++j) ok &= vals[j] == 0.0;
        ok &= detail::stamped_window<B>(vals + j_lo, j_hi - j_lo, s_lo, step,
                                     counter_base);
        for (mapping::Extent j = j_hi; j < run.len; ++j) ok &= vals[j] == 0.0;
        if (!ok) return false;
        run.local_base += b.src_step;
        run.global_base += b.dst_step;
        s = detail::add_mod<kStampMod>(s, rep.one);
      }
    }
  }
  return true;
}

}  // namespace hpfc::runtime
