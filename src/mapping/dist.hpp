// HPF distribution formats: how one template dimension is spread over one
// dimension of a processor arrangement.
//
//   BLOCK(b)  : template cell t lives on processor t / b (contiguous chunks)
//   CYCLIC(k) : template cell t lives on processor (t / k) mod P
//   *         : collapsed — the dimension is not distributed
//
// A Distribution maps a whole template onto a processor arrangement: one
// format per template dimension; the non-collapsed dimensions are matched
// with the processor dimensions in order (HPF 1.x rule).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mapping/shape.hpp"

namespace hpfc::mapping {

struct DistFormat {
  enum class Kind { Collapsed, Block, Cyclic };

  Kind kind = Kind::Collapsed;
  /// Block size / blocking factor. 0 means "default": ceil(M/P) for BLOCK,
  /// 1 for CYCLIC. Resolved at normalization time.
  Extent param = 0;

  static DistFormat collapsed() { return {Kind::Collapsed, 0}; }
  static DistFormat block(Extent size = 0) { return {Kind::Block, size}; }
  static DistFormat cyclic(Extent k = 0) { return {Kind::Cyclic, k}; }

  [[nodiscard]] bool distributed() const { return kind != Kind::Collapsed; }

  /// The effective block size once template extent M and processor count P
  /// are known (resolves the default parameter).
  [[nodiscard]] Extent resolved_param(Extent template_extent,
                                      Extent procs) const;

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const DistFormat&, const DistFormat&) = default;
};

struct Distribution {
  /// Shape of the target processor arrangement.
  Shape proc_shape;
  /// One entry per template dimension.
  std::vector<DistFormat> per_dim;

  /// Count of non-collapsed dimensions; must equal proc_shape.rank().
  [[nodiscard]] int distributed_dims() const;

  /// Processor dimension assigned to template dim `t_dim` (in-order match),
  /// or nullopt when that dimension is collapsed.
  [[nodiscard]] std::optional<int> proc_dim_of(int t_dim) const;

  /// Validates against a template shape; returns an error message or empty.
  [[nodiscard]] std::string validate(const Shape& template_shape) const;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Distribution&, const Distribution&) = default;
};

}  // namespace hpfc::mapping
