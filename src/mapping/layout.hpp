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
// is a cartesian product of per-array-dimension index sets; every
// ownership query below exploits that structure.
#pragma once

#include <cstdint>
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

  /// Per-array-dimension index sets whose cartesian product is the
  /// element set owned by `rank`, in closed form: a BLOCK dimension is one
  /// interval, a CYCLIC(k) dimension a periodic run pattern whose size is
  /// independent of the array extent. When `for_sending` is true,
  /// replicated grid dimensions are restricted to coordinate 0 so that
  /// each element has exactly one sending owner. Materializing each
  /// dimension yields the element-list oracle
  /// (testing::owned_index_lists).
  [[nodiscard]] std::vector<IndexRuns> owned_index_runs(
      int rank, bool for_sending = false) const;

  [[nodiscard]] Extent local_count(int rank) const;

  /// The rank's owned set as a periodic program of maximal strided
  /// stretches, built in closed form from the innermost dimension's
  /// period window. Its expansion tiles the local index space exactly
  /// (local_base advances by len) and covers the owned elements in local
  /// (row-major product) order. A stretch varies only the innermost
  /// array dimension, and within one outer row no two consecutive
  /// stretches form one progression. Its size is O(rows): a CYCLIC(1) row
  /// is one stretch and a CYCLIC(k) row one block.
  [[nodiscard]] OwnedProgram owned_program(int rank) const;

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const ConcreteLayout&, const ConcreteLayout&) =
      default;

 private:
  /// The array indices along the axis that grid dim p constrains, owned
  /// at coordinate `coord` (Axis sources only): O(1) intervals for Block
  /// formats, per-period runs for Cyclic formats.
  [[nodiscard]] IndexRuns axis_runs(int p, Extent coord) const;

  Shape array_shape_;
  Shape proc_shape_;
  std::vector<DimOwner> owners_;
};

}  // namespace hpfc::mapping
