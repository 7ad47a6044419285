// Dense rectangular index spaces (array, template and processor shapes).
// All indices in this library are 0-based and extents are int64, matching
// the HPF model after lower-bound normalization.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace hpfc::mapping {

using Extent = std::int64_t;
using Index = std::int64_t;
using IndexVec = std::vector<Index>;

class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<Extent> extents);
  Shape(std::initializer_list<Extent> extents)
      : Shape(std::vector<Extent>(extents)) {}

  [[nodiscard]] int rank() const { return static_cast<int>(extents_.size()); }
  [[nodiscard]] Extent extent(int dim) const;
  [[nodiscard]] const std::vector<Extent>& extents() const { return extents_; }
  [[nodiscard]] Extent total() const;  ///< product of extents (1 if rank 0)

  /// Row-major linearization of `index` (must be in bounds).
  [[nodiscard]] Index linearize(std::span<const Index> index) const;
  /// Inverse of linearize.
  [[nodiscard]] IndexVec delinearize(Index linear) const;
  [[nodiscard]] bool contains(std::span<const Index> index) const;

  /// Calls `fn` for every index vector in row-major order.
  void for_each(const std::function<void(std::span<const Index>)>& fn) const;

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const Shape&, const Shape&) = default;

 private:
  std::vector<Extent> extents_;
};

}  // namespace hpfc::mapping
