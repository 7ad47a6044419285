#include "mapping/runs.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::mapping {

IndexRuns::IndexRuns(Index base, Extent period, std::vector<IndexRun> runs,
                     Extent span)
    : base_(base), period_(period), runs_(std::move(runs)), span_(span) {
  HPFC_ASSERT(period_ >= 1);
  if (span_ < 0) span_ = 0;
  // Runs whose first member is beyond the span can never produce a member
  // in any window (base + m*period + offset < base + span needs
  // offset < span); drop them so empty() is canonical.
  std::erase_if(runs_, [&](const IndexRun& r) {
    return r.count <= 0 || r.offset >= span_;
  });
  if (runs_.empty()) {
    base_ = 0;
    period_ = 1;
    span_ = 0;
    return;
  }
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const IndexRun& r = runs_[i];
    HPFC_ASSERT(r.offset >= 0 && r.stride >= 1 && r.count >= 1);
    HPFC_ASSERT_MSG(r.last() < period_, "run overflows its period window");
    if (i > 0)
      HPFC_ASSERT_MSG(runs_[i - 1].last() < r.offset,
                      "runs must be ordered and span-disjoint");
  }
}

IndexRuns IndexRuns::interval(Index lo, Index hi) {
  if (hi <= lo) return IndexRuns{};
  const Extent span = hi - lo;
  return IndexRuns(lo, span, {IndexRun{0, 1, span}}, span);
}

IndexRuns IndexRuns::from_sorted(Index base, std::span<const Index> members,
                                 Extent span) {
  std::vector<IndexRun> runs;
  std::size_t i = 0;
  while (i < members.size()) {
    if (i + 1 == members.size()) {
      runs.push_back({members[i], 1, 1});
      break;
    }
    const Extent stride = members[i + 1] - members[i];
    HPFC_ASSERT_MSG(stride > 0, "members must be sorted and unique");
    std::size_t j = i + 1;
    while (j + 1 < members.size() && members[j + 1] - members[j] == stride)
      ++j;
    runs.push_back({members[i], stride, static_cast<Extent>(j - i + 1)});
    i = j + 1;
  }
  const Extent period = std::max<Extent>(span, 1);
  return IndexRuns(base, period, std::move(runs), span);
}

Extent IndexRuns::count_in_period() const {
  Extent total = 0;
  for (const IndexRun& r : runs_) total += r.count;
  return total;
}

namespace {

/// Members of `r` with offset strictly below `t`.
Extent run_count_below(const IndexRun& r, Index t) {
  if (t <= r.offset) return 0;
  return std::min<Extent>(r.count, (t - 1 - r.offset) / r.stride + 1);
}

}  // namespace

Extent IndexRuns::count() const { return count_below(top()); }

Extent IndexRuns::count_below(Index i) const {
  if (runs_.empty()) return 0;
  const Index rel = std::clamp<Index>(i - base_, 0, span_);
  const Extent windows = rel / period_;
  const Index tail = rel % period_;
  Extent total = windows * count_in_period();
  for (const IndexRun& r : runs_) total += run_count_below(r, tail);
  return total;
}

Index IndexRuns::position_of(Index i) const {
  const Index rel = i - base_;
  if (runs_.empty() || rel < 0 || rel >= span_) return -1;
  const Extent window = rel / period_;
  const Index o = rel % period_;
  Extent before = window * count_in_period();
  for (const IndexRun& r : runs_) {
    if (o > r.last()) {
      before += r.count;
      continue;
    }
    if (o < r.offset) return -1;
    if ((o - r.offset) % r.stride != 0) return -1;
    return before + (o - r.offset) / r.stride;
  }
  return -1;
}

Index IndexRuns::first() const {
  HPFC_ASSERT(!runs_.empty());
  return base_ + runs_.front().offset;
}

void IndexRuns::for_each(const std::function<void(Index)>& fn) const {
  for_each_instance([&](Index start, Extent stride, Extent count) {
    for (Extent j = 0; j < count; ++j) fn(start + j * stride);
  });
}

void IndexRuns::for_each_instance(
    const std::function<void(Index, Extent, Extent)>& fn) const {
  const Extent windows = (span_ + period_ - 1) / period_;
  for (Extent w = 0; w < windows; ++w) for_each_window_instance(w, fn);
}

std::vector<Index> IndexRuns::materialize() const {
  std::vector<Index> members;
  members.reserve(static_cast<std::size_t>(count()));
  for_each([&](Index i) { members.push_back(i); });
  return members;
}

IndexRuns IndexRuns::rebase(Index new_base, Index new_top) const {
  HPFC_ASSERT(new_base >= base_ && new_top <= top());
  const Extent new_span = new_top - new_base;
  if (runs_.empty() || new_span <= 0) return IndexRuns{};
  const Index shift = (new_base - base_) % period_;
  std::vector<IndexRun> shifted;
  shifted.reserve(runs_.size() + 1);
  for (const IndexRun& r : runs_) {
    // Members at or above the cut keep their order; members below it wrap
    // to the end of the rotated window (they belong to the next period
    // instance relative to the new anchor).
    const Extent below =
        shift <= r.offset
            ? 0
            : std::min<Extent>(r.count, (shift - 1 - r.offset) / r.stride + 1);
    if (below < r.count)
      shifted.push_back(
          {r.offset + below * r.stride - shift, r.stride, r.count - below});
    if (below > 0)
      shifted.push_back({r.offset - shift + period_, r.stride, below});
  }
  std::sort(shifted.begin(), shifted.end(),
            [](const IndexRun& a, const IndexRun& b) {
              return a.offset < b.offset;
            });
  return IndexRuns(new_base, period_, std::move(shifted), new_span);
}

IndexRuns IndexRuns::restrict_to(Index lo, Index hi) const {
  const Index nb = std::max(lo, base_);
  const Index nt = std::min(hi, top());
  if (runs_.empty() || nt <= nb) return IndexRuns{};
  return rebase(nb, nt);
}

IndexRuns IndexRuns::intersect(const IndexRuns& a, const IndexRuns& b) {
  if (a.empty() || b.empty()) return IndexRuns{};
  const Index nb = std::max(a.base_, b.base_);
  const Index nt = std::min(a.top(), b.top());
  if (nt <= nb) return IndexRuns{};
  const IndexRuns ra = a.rebase(nb, nt);
  const IndexRuns rb = b.rebase(nb, nt);
  if (ra.empty() || rb.empty()) return IndexRuns{};
  const Extent span = nt - nb;
  // A full side contributes nothing beyond its bounds (already applied).
  if (ra.full()) return rb;
  if (rb.full()) return ra;

  // Work over one lcm window: membership depends only on the phase within
  // both periods, so the intersection repeats with the combined period.
  Extent period = span;
  if (ra.period_ < span && rb.period_ < span) {
    const Extent g = gcd64(ra.period_, rb.period_);
    const Extent q = ra.period_ / g;
    if (q <= span / rb.period_) period = std::min(q * rb.period_, span);
  }
  // Enumerate a's members of the first window only — O(window), never
  // O(span): the pattern repeats beyond the lcm window.
  const Extent window = std::min(period, span);
  std::vector<Index> offsets;
  for (Extent wb = 0; wb < window; wb += ra.period_) {
    bool past_window = false;
    for (const IndexRun& r : ra.runs_) {
      for (Extent j = 0; j < r.count; ++j) {
        const Index i = wb + r.offset + j * r.stride;
        if (i >= window) {
          past_window = true;
          break;
        }
        if (rb.contains(nb + i)) offsets.push_back(i);
      }
      if (past_window) break;
    }
    if (past_window) break;
  }
  if (offsets.empty()) return IndexRuns{};
  IndexRuns compressed = from_sorted(nb, offsets, window);
  return IndexRuns(nb, period, compressed.runs(), span);
}

std::string IndexRuns::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i > 0) os << ",";
    os << runs_[i].offset;
    if (runs_[i].count > 1)
      os << ":+" << runs_[i].stride << "x" << runs_[i].count;
  }
  os << "}+" << period_ << "Z @" << base_ << " in [" << base_ << "," << top()
     << ")";
  return os.str();
}

}  // namespace hpfc::mapping
