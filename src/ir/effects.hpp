// The paper's conservative use information: how an array copy "might be
// used afterwards" — never referenced (N), fully redefined before any use
// (D), only read (R), or maybe modified (W) (§3.1, Appendix A).
//
// The paper linearizes the qualifiers N < D < R < W. We implement the
// underlying two-boolean lattice instead: (may_read, may_write) with
// N=(0,0), D=(0,1), R=(1,0), W=(1,1); merging across paths is component-wise
// OR and sequential composition follows first-use semantics. This is sound
// and agrees with the paper on its examples. It differs on {D,R} path
// merges: their union is (1,1) = W, where the linear order's maximum R
// would miss the D path's write; so the copy both transfers the incoming
// values and marks the other copies stale.
//
// Meaning for the remapping machinery:
//   may_read  = the incoming *values* are needed -> the copy must transfer
//               data (N and D copies skip communication entirely).
//   may_write = the new copy may be modified -> the other copies' values
//               become stale (they must not be reused later).
#pragma once

#include <map>

namespace hpfc::ir {

struct Use {
  bool may_read = false;
  bool may_write = false;
  /// Some path to the next remapping point neither reads nor fully
  /// overwrites the incoming value: it flows through to later consumers.
  /// A pure D screens (passes=false), but merge(N, D) keeps passes=true —
  /// the letter alone would claim "fully redefined on every path" and
  /// license skipping a transfer whose value the N path still carries.
  bool passes = true;

  static constexpr Use none() { return {false, false, true}; }       // N
  static constexpr Use full_def() { return {false, true, false}; }   // D
  static constexpr Use read() { return {true, false, true}; }        // R
  static constexpr Use write() { return {true, true, true}; }        // W

  [[nodiscard]] bool is_none() const { return !may_read && !may_write; }

  /// The paper's letter for this qualifier.
  [[nodiscard]] char letter() const {
    if (may_read) return may_write ? 'W' : 'R';
    return may_write ? 'D' : 'N';
  }

  /// Merge over distinct control paths (may-analysis union).
  [[nodiscard]] Use merge(Use other) const {
    return {may_read || other.may_read, may_write || other.may_write,
            passes || other.passes};
  }

  /// Sequential composition: `this` happens first, then `after`.
  /// A full redefinition (D) screens everything behind it: later uses see
  /// the new values, so the incoming values are still not needed. A merged
  /// D that still passes on some path does NOT screen: that path's later
  /// reads see the incoming value.
  [[nodiscard]] Use then(Use after) const {
    if (may_write && !may_read && !passes) return full_def();
    return {may_read || after.may_read, may_write || after.may_write,
            passes && after.passes};
  }

  friend bool operator==(const Use&, const Use&) = default;
};

/// Per-array effect summary at a program point. Arrays absent from the map
/// have Use::none().
using EffectMap = std::map<int, Use>;  // key: ArrayId

/// Path-merge of two effect maps.
EffectMap merge(const EffectMap& a, const EffectMap& b);

/// Sequential composition: `first` happens, then `after`.
EffectMap then(const EffectMap& first, const EffectMap& after);

}  // namespace hpfc::ir
