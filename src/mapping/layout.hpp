// ConcreteLayout: the *normalized* form of a two-level HPF mapping.
//
// A FullMapping (alignment onto a template + the template's distribution
// onto a processor arrangement) is flattened into one owner rule per
// processor-grid dimension: the processor coordinate along grid dim p is a
// function of a single array dimension (through an affine template
// coordinate), of a constant template coordinate, or is unconstrained
// (replication). Two different (alignment, distribution) pairs that place
// every element identically normalize to equal ConcreteLayouts — this is
// the equality used for array *versions* (the paper's A_0, A_1, ...), so a
// realign+redistribute that restores the initial placement (Figure 2) is
// recognized as "the same version".
//
// Because each array dimension feeds at most one template dimension (HPF
// rule, enforced by Alignment::validate), the element set owned by a rank
// is a cartesian product of per-array-dimension index lists; every
// ownership query below exploits that structure.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mapping/align.hpp"
#include "mapping/dist.hpp"
#include "mapping/runs.hpp"
#include "mapping/shape.hpp"

namespace hpfc::mapping {

/// Owner rule for one processor-grid dimension.
struct DimOwner {
  AlignTarget source;      ///< Axis / Constant / Replicated
  DistFormat format;       ///< Block or Cyclic with resolved (>0) parameter
  Extent template_extent;  ///< extent of the underlying template dimension

  friend auto operator<=>(const DimOwner&, const DimOwner&) = default;
};

/// One maximal strided stretch of a rank's owned product set, in local
/// (row-major product) order: local positions local_base .. local_base+len-1
/// hold the global elements whose row-major linearizations are
/// global_base, global_base + global_stride, ... All stretches of one rank
/// vary only the innermost array dimension, so consumers can recover the
/// outer coordinates by delinearizing global_base once per stretch.
struct OwnedRun {
  Index local_base = 0;
  Index global_base = 0;
  Extent global_stride = 1;
  Extent len = 0;

  friend bool operator==(const OwnedRun&, const OwnedRun&) = default;
};

class ConcreteLayout {
 public:
  ConcreteLayout() = default;

  /// Builds and canonicalizes a layout. `owners` has one entry per
  /// processor-grid dimension (same rank as `proc_shape`).
  static ConcreteLayout make(Shape array_shape, Shape proc_shape,
                             std::vector<DimOwner> owners);

  /// A layout of `array_shape` fully owned by a single rank (serial).
  static ConcreteLayout serial(Shape array_shape);

  [[nodiscard]] const Shape& array_shape() const { return array_shape_; }
  [[nodiscard]] const Shape& proc_shape() const { return proc_shape_; }
  [[nodiscard]] const std::vector<DimOwner>& owners() const { return owners_; }
  [[nodiscard]] int ranks() const {
    return static_cast<int>(proc_shape_.total());
  }
  [[nodiscard]] bool replicated() const;

  /// Processor coordinate along grid dim `p` holding template coordinate t.
  [[nodiscard]] Extent coord_of_template(int p, Extent t) const;

  /// Per-array-dimension sorted index lists whose cartesian product is the
  /// element set owned by `rank`. When `for_sending` is true, replicated
  /// grid dimensions are restricted to coordinate 0 so that each element
  /// has exactly one sending owner.
  [[nodiscard]] std::vector<std::vector<Index>> owned_index_lists(
      int rank, bool for_sending = false) const;

  /// The same per-dimension ownership sets as owned_index_lists, but in
  /// closed form: a BLOCK dimension is one interval, a CYCLIC(k) dimension
  /// a periodic run pattern whose size is independent of the array extent.
  /// Materializing each dimension yields exactly owned_index_lists.
  [[nodiscard]] std::vector<IndexRuns> owned_index_runs(
      int rank, bool for_sending = false) const;

  [[nodiscard]] Extent local_count(int rank) const;
  [[nodiscard]] bool owns(int rank, std::span<const Index> global) const;
  /// All ranks owning `global` (more than one under replication).
  [[nodiscard]] std::vector<int> owners_of(std::span<const Index> global) const;
  /// Lowest-numbered owning rank.
  [[nodiscard]] int primary_owner(std::span<const Index> global) const;

  /// Row-major position of `global` within rank's owned product set, or -1.
  /// Recomputes the rank's owned lists; for repeated queries use
  /// position_in_lists with lists obtained once from owned_index_lists.
  [[nodiscard]] Index local_position(int rank,
                                     std::span<const Index> global) const;

  /// Row-major position of `global` within the product of `lists`
  /// (as returned by owned_index_lists), or -1 when not a member.
  static Index position_in_lists(const std::vector<std::vector<Index>>& lists,
                                 std::span<const Index> global);

  /// Calls fn(global_index, local_position) for each element owned by rank,
  /// in local (row-major product) order. Templated so tight per-element
  /// loops inline the visitor (pass any callable; std::function still
  /// binds here when a caller needs type erasure).
  template <typename Fn>
  void for_each_owned(int rank, Fn&& fn) const {
    const auto lists = owned_index_lists(rank);
    for (const auto& list : lists)
      if (list.empty()) return;

    const int rank_dims = array_shape_.rank();
    IndexVec positions(static_cast<std::size_t>(rank_dims), 0);
    IndexVec global(static_cast<std::size_t>(rank_dims), 0);
    Extent count = 1;
    for (const auto& list : lists) count *= static_cast<Extent>(list.size());

    for (Extent local = 0; local < count; ++local) {
      for (int d = 0; d < rank_dims; ++d) {
        global[static_cast<std::size_t>(d)] =
            lists[static_cast<std::size_t>(d)][static_cast<std::size_t>(
                positions[static_cast<std::size_t>(d)])];
      }
      fn(std::span<const Index>(global), local);
      for (int d = rank_dims - 1; d >= 0; --d) {
        auto& pos = positions[static_cast<std::size_t>(d)];
        if (++pos <
            static_cast<Index>(lists[static_cast<std::size_t>(d)].size()))
          break;
        pos = 0;
      }
    }
  }

  /// The runs-cursor form of for_each_owned: calls fn(OwnedRun) for each
  /// maximal strided stretch of the rank's owned set, in local order, so
  /// per-element ownership walks become bulk strided traversals. The
  /// stretches tile the local index space exactly (local_base advances by
  /// len) and cover the same elements as for_each_owned in the same order;
  /// a rank-0 array yields one singleton stretch. Within one outer row no
  /// two consecutive stretches form one progression, so a CYCLIC(1)
  /// dimension gives one stretch per row, not one per element.
  template <typename Fn>
  void for_each_owned_run(int rank, Fn&& fn) const {
    const int dims = array_shape_.rank();
    if (dims == 0) {
      fn(OwnedRun{0, 0, 1, 1});
      return;
    }
    const auto runs = owned_index_runs(rank);
    for (const auto& r : runs)
      if (r.empty()) return;

    // Row-major linear strides of the global array shape; the innermost
    // dimension's stride is 1, so a member stride there is a linear stride.
    std::vector<Extent> shape_stride(static_cast<std::size_t>(dims), 1);
    for (int d = dims - 2; d >= 0; --d)
      shape_stride[static_cast<std::size_t>(d)] =
          shape_stride[static_cast<std::size_t>(d + 1)] *
          array_shape_.extent(d + 1);

    // Outer dimensions are enumerated member-by-member (their member count
    // is the local extent); the innermost dimension stays in run form, as
    // its maximal progressions. Coalescing stops at the row's end, so a
    // stretch varies only the innermost dimension.
    std::vector<std::vector<Index>> outer;
    outer.reserve(static_cast<std::size_t>(dims - 1));
    for (int d = 0; d + 1 < dims; ++d)
      outer.push_back(runs[static_cast<std::size_t>(d)].materialize());
    const IndexRuns& inner = runs[static_cast<std::size_t>(dims - 1)];

    Index local = 0;
    std::vector<std::size_t> pos(outer.size(), 0);
    while (true) {
      Index base = 0;
      for (std::size_t d = 0; d < outer.size(); ++d)
        base += outer[d][pos[d]] * shape_stride[d];
      inner.for_each_stretch([&](const IndexRun& s) {
        fn(OwnedRun{local, base + s.offset, s.stride, s.count});
        local += s.count;
      });
      int d = static_cast<int>(outer.size()) - 1;
      for (; d >= 0; --d) {
        if (++pos[static_cast<std::size_t>(d)] <
            outer[static_cast<std::size_t>(d)].size())
          break;
        pos[static_cast<std::size_t>(d)] = 0;
      }
      if (d < 0) break;
    }
  }

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const ConcreteLayout&, const ConcreteLayout&) =
      default;

 private:
  /// Sorted array indices along `array_dim` constrained by grid dim p at
  /// coordinate `coord` (Axis sources only).
  [[nodiscard]] std::vector<Index> axis_indices(int p, Extent coord) const;

  /// Closed-form run set equivalent to axis_indices: O(1) intervals for
  /// Block formats, per-period runs for Cyclic formats.
  [[nodiscard]] IndexRuns axis_runs(int p, Extent coord) const;

  Shape array_shape_;
  Shape proc_shape_;
  std::vector<DimOwner> owners_;
};

}  // namespace hpfc::mapping
