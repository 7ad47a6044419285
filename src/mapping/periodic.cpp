#include "mapping/periodic.hpp"

#include <array>

#include "support/check.hpp"

namespace hpfc::mapping {

namespace {

/// Merges `next` into `prev` when it continues prev with a uniform stride
/// on both index spaces (the coalescing rule of SegmentCoalescer).
bool coalesce(CopySegment& prev, const CopySegment& next) {
  Extent as = prev.len > 1 ? prev.src_stride : next.src_stride;
  Extent bs = prev.len > 1 ? prev.dst_stride : next.dst_stride;
  if (prev.len == 1 && next.len == 1) {
    as = next.src_base - prev.src_base;
    bs = next.dst_base - prev.dst_base;
  }
  const bool strides_agree =
      prev.len == 1 || next.len == 1 ||
      (prev.src_stride == next.src_stride && prev.dst_stride == next.dst_stride);
  if (!strides_agree || as < 1 || bs < 1 ||
      next.src_base != prev.src_base + prev.len * as ||
      next.dst_base != prev.dst_base + prev.len * bs)
    return false;
  prev.src_stride = as;
  prev.dst_stride = bs;
  prev.len += next.len;
  return true;
}

/// Longest repetition period (in windows) the steady-state check looks
/// for. The coalescing state settles within a window or two for every
/// block-cyclic pattern; a longer cycle is still exact, only simulated.
constexpr Extent kMaxCycle = 4;

}  // namespace

std::vector<SegmentBlock> flat_blocks(std::size_t n) {
  if (n == 0) return {};
  return {{0, narrow<std::uint32_t>(n), 1, 0, 0}};
}

std::uint64_t expanded_count(std::span<const SegmentBlock> blocks) {
  std::uint64_t count = 0;
  for (const SegmentBlock& b : blocks)
    count += static_cast<std::uint64_t>(b.reps) * b.count;
  return count;
}

void SegmentCoalescer::push(const CopySegment& next) {
  HPFC_ASSERT(next.len >= 1);
  if (!pending_.empty() && coalesce(pending_.back(), next)) return;
  pending_.push_back(next);
}

void SegmentCoalescer::push_windows(std::span<const CopySegment> window,
                                     Extent reps, Extent src_step,
                                     Extent dst_step) {
  if (window.empty()) return;
  // The coalescing state is the trailing (open) run alone, and coalesce()
  // depends only on differences, so it commutes with translation: once
  // the open run after window w is the open run after window w - q
  // shifted by q windows, every later group of q windows repeats the
  // runs finished in between, shifted again. A run that absorbs whole
  // windows instead (same base, growing by one window's extent per
  // window) keeps doing so.
  struct Mark {
    std::size_t size = 0;  ///< pending_.size() after the window
    CopySegment open;
  };
  // The marks of the last kMaxCycle + 1 windows, by window index modulo
  // the ring size; windows before `since` (a fast-forward) do not count.
  std::array<Mark, static_cast<std::size_t>(kMaxCycle + 1)> marks;
  const auto mark = [&](Extent w) -> Mark& {
    return marks[static_cast<std::size_t>(w % (kMaxCycle + 1))];
  };
  Extent since = 0;
  for (Extent w = 0; w < reps; ++w) {
    for (const CopySegment& run : window)
      push(shifted(run, w, src_step, dst_step));
    const Mark now{pending_.size(), pending_.back()};
    mark(w) = now;
    const Extent remaining = reps - 1 - w;
    if (remaining == 0) return;
    const Extent seen = w - since + 1;

    if (seen >= 2) {
      const Mark& prev = mark(w - 1);
      const Extent grown = now.open.len - prev.open.len;
      if (now.size == prev.size && prev.open.len > 1 &&
          now.open.src_base == prev.open.src_base &&
          now.open.dst_base == prev.open.dst_base &&
          now.open.src_stride == prev.open.src_stride &&
          now.open.dst_stride == prev.open.dst_stride &&
          grown * now.open.src_stride == src_step &&
          grown * now.open.dst_stride == dst_step) {
        pending_.back().len += grown * remaining;
        return;
      }
    }

    for (Extent steps = 1; steps <= kMaxCycle && steps < seen; ++steps) {
      const Mark& then = mark(w - steps);
      if (now.size <= then.size ||
          now.open != shifted(then.open, steps, src_step, dst_step))
        continue;
      const Extent groups = remaining / steps;
      if (groups == 0) break;
      // The cycle is the runs finished since `then`: from its open run to
      // before ours. Once the runs before it are committed, they lead
      // pending_.
      const std::size_t count = now.size - then.size;
      const CopySegment open =
          shifted(now.open, groups * steps, src_step, dst_step);
      commit(then.size - 1);
      blocks_.push_back({narrow<std::uint32_t>(body_.size()),
                         narrow<std::uint32_t>(count), groups + 1,
                         steps * src_step, steps * dst_step});
      body_.insert(body_.end(), pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(count));
      pending_.assign(1, open);
      // The leftover (< steps) windows are simulated from the shifted
      // state.
      w += groups * steps;
      since = w + 1;
      break;
    }
  }
}

void SegmentCoalescer::commit(std::size_t n) {
  HPFC_ASSERT(n <= pending_.size());
  std::size_t i = 0;
  // Final runs that are the next repetition of the last periodic block
  // extend it rather than start a flat block.
  while (!blocks_.empty() && blocks_.back().reps > 1) {
    SegmentBlock& last = blocks_.back();
    if (n - i < last.count) break;
    bool repeats = true;
    for (std::uint32_t j = 0; j < last.count && repeats; ++j)
      repeats = pending_[i + j] ==
                shifted(body_[last.first + j], last.reps, last.src_step,
                        last.dst_step);
    if (!repeats) break;
    ++last.reps;
    i += last.count;
  }
  if (i < n) {
    const bool extend = !blocks_.empty() && blocks_.back().reps == 1 &&
                        blocks_.back().first + blocks_.back().count ==
                            body_.size();
    if (!extend)
      blocks_.push_back({narrow<std::uint32_t>(body_.size()), 0, 1, 0, 0});
    body_.insert(body_.end(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(i),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
    blocks_.back().count += narrow<std::uint32_t>(n - i);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
}

PeriodicSegments SegmentCoalescer::finish() {
  PeriodicSegments program;
  if (blocks_.empty() && !pending_.empty()) {
    // Nothing repeated: the pending runs are the whole body.
    program.blocks.push_back(
        {0, narrow<std::uint32_t>(pending_.size()), 1, 0, 0});
    program.segments = std::move(pending_);
  } else {
    commit(pending_.size());
    program.segments = std::move(body_);
    program.blocks = std::move(blocks_);
  }
  pending_.clear();
  body_.clear();
  blocks_.clear();
  return program;
}

}  // namespace hpfc::mapping
