// HPF alignment: the first level of the two-level mapping. An alignment
// relates array index space to template index space. Each *template*
// dimension is fed by one of:
//
//   Axis(d, s, o)  : template coordinate = s * i_d + o for array dim d
//   Constant(c)    : template coordinate fixed at c
//   Replicated     : the array is replicated along this template dimension
//
// Array dimensions not used by any template dimension are *collapsed*
// (their index does not influence placement). Each array dimension may feed
// at most one template dimension (HPF align-dummy rule).
//
// "ALIGN A WITH B" is resolved by composing A's alignment to B with B's
// alignment to its template (compose_onto).
#pragma once

#include <string>
#include <vector>

#include "mapping/shape.hpp"

namespace hpfc::mapping {

struct AlignTarget {
  enum class Kind { Axis, Constant, Replicated };

  Kind kind = Kind::Replicated;
  int array_dim = -1;  ///< for Axis
  Extent stride = 1;   ///< for Axis
  Extent offset = 0;   ///< for Axis (affine offset) and Constant (the value)

  static AlignTarget axis(int dim, Extent stride = 1, Extent offset = 0) {
    return {Kind::Axis, dim, stride, offset};
  }
  static AlignTarget constant(Extent value) {
    return {Kind::Constant, -1, 0, value};
  }
  static AlignTarget replicated() { return {Kind::Replicated, -1, 0, 0}; }

  /// Template coordinate produced by array coordinate `i` (Axis only).
  [[nodiscard]] Extent apply(Extent i) const;

  [[nodiscard]] std::string to_string() const;
  friend auto operator<=>(const AlignTarget&, const AlignTarget&) = default;
};

struct Alignment {
  int array_rank = 0;
  /// One target per template dimension.
  std::vector<AlignTarget> per_template_dim;

  /// The identity alignment of a rank-r array onto a rank-r template.
  static Alignment identity(int rank);

  /// Composes `this` (array -> intermediate array B's index space) with
  /// `outer` (B -> template): the result maps the array directly onto the
  /// template. Used to resolve ALIGN A WITH B chains.
  [[nodiscard]] Alignment compose_onto(const Alignment& outer) const;

  /// Checks well-formedness against the array and template shapes
  /// (each array dim used at most once, image within template bounds).
  /// Returns an error message, or empty when valid.
  [[nodiscard]] std::string validate(const Shape& array_shape,
                                     const Shape& template_shape) const;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Alignment&, const Alignment&) = default;
};

}  // namespace hpfc::mapping
