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
#include "mapping/periodic.hpp"
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

/// `run` shifted by k repetitions of an ownership block: the block's
/// src_step moves local positions, its dst_step global linear indices.
[[nodiscard]] inline OwnedRun shifted(OwnedRun run, Extent k, Index local_step,
                                      Index global_step) {
  run.local_base += k * local_step;
  run.global_base += k * global_step;
  return run;
}

/// A rank's owned set as a periodic program of OwnedRun stretches: a
/// short body table plus the blocks that repeat it (mapping/periodic.hpp;
/// a block's src_step is its local step, its dst_step its global step).
/// Every consumer loops over the two levels; expanding them yields the
/// flat stretch list.
struct OwnedProgram {
  std::vector<OwnedRun> body;
  std::vector<SegmentBlock> blocks;

  /// The repetition-free program of `runs` (one reps == 1 block).
  static OwnedProgram flat(std::vector<OwnedRun> runs);

  /// Number of stretches in the expansion — closed form.
  [[nodiscard]] std::size_t stretch_count() const {
    return static_cast<std::size_t>(expanded_count(blocks));
  }

  /// Calls fn(OwnedRun) for every expanded stretch, in local order.
  template <typename Fn>
  void for_each_stretch(Fn&& fn) const {
    for_each_expanded(body, blocks, fn);
  }

  /// The expanded stretch list (tests).
  [[nodiscard]] std::vector<OwnedRun> expand() const {
    return expanded(body, blocks);
  }

  friend bool operator==(const OwnedProgram&, const OwnedProgram&) = default;
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

  /// The compiled form of for_each_owned: the rank's owned set as a
  /// periodic program of maximal strided stretches, built in closed form
  /// from the innermost dimension's period window. Its expansion tiles the
  /// local index space exactly (local_base advances by len) and covers
  /// the same elements as for_each_owned in the same order; a rank-0
  /// array yields one singleton stretch. A stretch varies only the
  /// innermost array dimension, and within one outer row no two
  /// consecutive stretches form one progression. Its size is O(rows):
  /// a CYCLIC(1) row is one stretch and a CYCLIC(k) row one block.
  [[nodiscard]] OwnedProgram owned_program(int rank) const;

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
