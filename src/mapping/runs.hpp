// Interval runs: the closed-form representation of block-cyclic index
// sets used by the redistribution pipeline (cf. the FALLS representation
// of Ramaswamy & Banerjee and the paper's reference [19]).
//
// An IndexRuns value describes the set
//
//     { base + m*period + r.offset + j*r.stride }
//         for every run r, 0 <= j < r.count, m >= 0,
//     intersected with [base, base + span)
//
// i.e. a periodic pattern of strided runs anchored at `base`. The two
// ownership shapes that arise from HPF mappings are both O(1)-sized in
// this form: a BLOCK dimension is a single full interval (base/span carry
// the bounds, one run covers the window) and a CYCLIC(k) dimension is a
// short per-period run list whose period is independent of the array
// extent. Set operations (intersection, range restriction, counting,
// membership rank) are closed-form over the run lists, so communication
// sets are computed in O(runs) instead of O(extent).
//
// Canonical invariants: runs are sorted by offset, their member spans are
// pairwise disjoint and ordered (run i's last member precedes run i+1's
// first), every member offset lies in [0, period), and enumeration
// (for_each / materialize) yields the member set in ascending order —
// the shared pack order of the redistribution layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mapping/shape.hpp"

namespace hpfc::mapping {

/// One strided run: members offset, offset+stride, ...,
/// offset+(count-1)*stride.
struct IndexRun {
  Index offset = 0;
  Extent stride = 1;  ///< >= 1
  Extent count = 0;   ///< >= 1 for stored runs

  [[nodiscard]] Index last() const { return offset + stride * (count - 1); }
  friend bool operator==(const IndexRun&, const IndexRun&) = default;
};

class IndexRuns {
 public:
  /// The empty set.
  IndexRuns() = default;

  /// General constructor; normalizes (drops unreachable runs, collapses
  /// empty windows) and checks the canonical invariants.
  IndexRuns(Index base, Extent period, std::vector<IndexRun> runs,
            Extent span);

  /// The full interval [lo, hi).
  static IndexRuns interval(Index lo, Index hi);
  /// Compresses a sorted, duplicate-free member list (relative to `base`)
  /// into maximal arithmetic runs over a single window.
  static IndexRuns from_sorted(Index base, std::span<const Index> members,
                               Extent span);
  /// Set intersection in O(runs) per lcm window (never materializes
  /// members outside one period window).
  static IndexRuns intersect(const IndexRuns& a, const IndexRuns& b);

  [[nodiscard]] Index base() const { return base_; }
  [[nodiscard]] Extent period() const { return period_; }
  [[nodiscard]] Extent span() const { return span_; }
  [[nodiscard]] Index top() const { return base_ + span_; }
  [[nodiscard]] const std::vector<IndexRun>& runs() const { return runs_; }

  [[nodiscard]] bool empty() const { return runs_.empty(); }
  /// Number of members — closed form.
  [[nodiscard]] Extent count() const;
  /// Members within one period window (offsets in [0, period)).
  [[nodiscard]] Extent count_in_period() const;
  /// True when every index of [base, top) is a member (and the set is
  /// non-empty).
  [[nodiscard]] bool full() const { return span_ > 0 && count() == span_; }

  [[nodiscard]] bool contains(Index i) const { return position_of(i) >= 0; }
  /// Rank of `i` within the set (0-based, ascending order), or -1.
  [[nodiscard]] Index position_of(Index i) const;
  /// Number of members strictly below `i` — closed form.
  [[nodiscard]] Extent count_below(Index i) const;
  /// Number of members in [lo, hi).
  [[nodiscard]] Extent count_between(Index lo, Index hi) const {
    return count_below(hi) - count_below(lo);
  }
  /// Smallest member; set must be non-empty.
  [[nodiscard]] Index first() const;

  /// Restriction to [lo, hi) — the periodic structure is preserved
  /// (the phase shifts into the run offsets).
  [[nodiscard]] IndexRuns restrict_to(Index lo, Index hi) const;

  /// Calls fn(member) in ascending order.
  void for_each(const std::function<void(Index)>& fn) const;
  /// Calls fn(start, stride, count) for each run instance (one window at a
  /// time, clipped to the span), in ascending member order.
  void for_each_instance(
      const std::function<void(Index, Extent, Extent)>& fn) const;
  [[nodiscard]] std::vector<Index> materialize() const;

  /// Number of complete period windows in the span: windows
  /// 0 .. full_windows()-1 hold every run unclipped and are translates of
  /// each other (by one period); a trailing partial window follows when
  /// the span is not a multiple of the period.
  [[nodiscard]] Extent full_windows() const { return span_ / period_; }
  /// Calls fn(start, stride, count) for each run instance of window `w`
  /// alone, clipped to the span, in ascending member order — O(runs).
  template <typename Fn>
  void for_each_window_instance(Extent w, Fn&& fn) const {
    const Index window = w * period_;
    for (const IndexRun& r : runs_) {
      const Index start = window + r.offset;
      if (start >= span_) return;  // later members only grow
      const Extent clipped =
          std::min<Extent>(r.count, (span_ - 1 - start) / r.stride + 1);
      fn(base_ + start, r.stride, clipped);
      if (clipped < r.count) return;
    }
  }

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const IndexRuns&, const IndexRuns&) = default;

 private:
  /// Shifts the anchor to new_base and clips the top to new_top; the
  /// pattern phase rotates into the offsets, the period is preserved.
  [[nodiscard]] IndexRuns rebase(Index new_base, Index new_top) const;

  Index base_ = 0;
  Extent period_ = 1;
  std::vector<IndexRun> runs_;
  Extent span_ = 0;
};

}  // namespace hpfc::mapping
