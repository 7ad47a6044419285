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
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"
#include "mapping/shape.hpp"

namespace hpfc::runtime {

/// Deterministic, order-independent read-checksum weight.
constexpr std::uint64_t weight(std::int64_t linear) {
  return (static_cast<std::uint64_t>(linear) * 2654435761ULL) % 1000003ULL + 1;
}

/// Value stamped by the `counter`-th write event at element `linear`.
constexpr double stamped(std::uint64_t counter, std::int64_t linear) {
  return static_cast<double>(counter * 1009ULL +
                             static_cast<std::uint64_t>(linear % 997));
}

/// One [lo, hi) interval per array dimension (the shape of ir::Region).
using Box = std::vector<std::pair<mapping::Extent, mapping::Extent>>;

/// The members [j_lo, j_hi) of `run` whose coordinates lie inside `box`.
/// A stretch varies only the innermost dimension (mapping::OwnedRun), so
/// the outer coordinates are peeled off global_base once and the inner
/// window is clipped in closed form. A scalar is always inside.
/// Allocates nothing.
[[nodiscard]] inline std::pair<mapping::Extent, mapping::Extent> clip_stretch(
    const mapping::Shape& shape,
    std::span<const std::pair<mapping::Extent, mapping::Extent>> box,
    const mapping::OwnedRun& run) {
  using mapping::Extent;
  const std::vector<Extent>& extents = shape.extents();
  const auto dims = extents.size();
  if (dims == 0) return {0, run.len};
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

  /// The members of `run` that hold stamped values; the rest read 0.
  [[nodiscard]] std::pair<mapping::Extent, mapping::Extent> stamped_members(
      const mapping::Shape& shape, const mapping::OwnedRun& run) const {
    if (dead) return {0, 0};
    return clip_stretch(shape, box, run);
  }
};

}  // namespace hpfc::runtime
