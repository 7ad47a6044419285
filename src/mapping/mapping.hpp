// FullMapping: a snapshot of the two-level HPF mapping of one array at one
// program point — the alignment onto a template together with the
// distribution that template currently has. The remapping analyses
// propagate FullMappings (the paper's point that "both the alignment and
// distribution problems must be solved" to know actual mappings: a
// REDISTRIBUTE of the template changes the mapping of every array aligned
// to it), while array *versions* are interned on the normalized
// ConcreteLayout (placement equality).
#pragma once

#include <string>
#include <vector>

#include "mapping/align.hpp"
#include "mapping/dist.hpp"
#include "mapping/layout.hpp"
#include "mapping/shape.hpp"

namespace hpfc::mapping {

using TemplateId = int;

struct FullMapping {
  TemplateId template_id = -1;
  Shape template_shape;
  Alignment align;    ///< array -> template
  Distribution dist;  ///< template -> processors

  /// Flattens the two levels into ownership rules. `array_shape` is the
  /// shape of the mapped array.
  [[nodiscard]] ConcreteLayout normalize(const Shape& array_shape) const;

  /// Validates both levels; returns an error message or empty.
  [[nodiscard]] std::string validate(const Shape& array_shape) const;

  friend bool operator==(const FullMapping&, const FullMapping&) = default;
};

/// Interns the distinct placements (ConcreteLayouts) an array assumes over
/// a routine; the table index is the paper's version subscript (A_0 is the
/// initial mapping).
class VersionTable {
 public:
  /// Returns the version id for `layout`, creating it if new. The first
  /// FullMapping interned for a layout is kept as its representative.
  int intern(const ConcreteLayout& layout, const FullMapping& representative);

  /// Version id of `layout`, or -1 when never interned.
  [[nodiscard]] int find(const ConcreteLayout& layout) const;

  [[nodiscard]] const ConcreteLayout& layout(int version) const;
  [[nodiscard]] const FullMapping& representative(int version) const;
  [[nodiscard]] int size() const { return static_cast<int>(layouts_.size()); }

 private:
  std::vector<ConcreteLayout> layouts_;
  std::vector<FullMapping> representatives_;
};

}  // namespace hpfc::mapping
