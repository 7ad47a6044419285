// Random valid-program generator for property-based and differential
// testing: programs with templates, aligned and directly distributed
// arrays, realign/redistribute statements, branches, loops and calls.
// Generation is unconstrained regarding ambiguity, so some seeds produce
// programs the compiler must reject (restriction 1) — callers use
// rejection sampling via generate_compilable().
#pragma once

#include <optional>
#include <utility>

#include "ir/program.hpp"

namespace hpfc::testing {

struct GenConfig {
  unsigned seed = 1;
  int statements = 10;      ///< approximate top-level statement budget
  int max_depth = 2;        ///< if/loop nesting
  bool two_dimensional = true;  ///< include a 2-D array
  bool with_calls = true;
};

/// Builds a random well-formed (but possibly ambiguous) program.
ir::Program generate(const GenConfig& config);

/// Rejection-samples seeds starting at config.seed until a program passes
/// the remapping analysis; returns it together with the accepted seed.
/// Returns nullopt when `attempts` seeds all fail.
std::optional<std::pair<ir::Program, unsigned>> generate_compilable(
    GenConfig config, int attempts = 50);

}  // namespace hpfc::testing
