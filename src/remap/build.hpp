// Remapping-graph construction (paper §3.2, Appendix B), implemented as
// the paper's set of dataflow problems over the CFG; remap::solve_fixpoint
// (fixpoint.hpp) solves the fixpoints among them, 1 and 3-5:
//
//  1. may-forward propagation of two-level mapping states — per array the
//     set of (alignment, distribution) pairs that may hold, per template
//     the set of distributions that may hold. REALIGN, REDISTRIBUTE and
//     call argument passing are the transfer functions ("impact").
//  2. reference checking and version substitution: every reference must see
//     exactly one placement (restriction 1; Figure 5 is rejected here,
//     Figure 6 is accepted because its ambiguity is dead at references).
//  3. may-backward use summarization (EffectsAfter), giving U_A(v); call
//     argument effects follow intent (Figure 25), the exit vertex models
//     exported arguments (Figure 22).
//  4. may-backward RemappedAfter propagation, giving the G_R edges.
//  5. must-forward live-region propagation (§4.3): a LIVE assertion
//     installs a rectangle, writes and remappings drop it, and path
//     merges keep only regions every predecessor agrees on; each vertex's
//     labels carry the region reaching it (ArrayLabel::live_region).
#pragma once

#include <map>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/effects.hpp"
#include "ir/program.hpp"
#include "mapping/mapping.hpp"
#include "remap/graph.hpp"
#include "support/diagnostics.hpp"

namespace hpfc::remap {

struct Analysis {
  ir::Cfg cfg;
  /// Version tables indexed by ArrayId (empty table for unmapped arrays).
  std::vector<mapping::VersionTable> versions;
  RemapGraph graph;
  /// Per CFG node: the version each referenced array uses there.
  std::vector<std::map<ir::ArrayId, int>> ref_versions;
  /// Per CFG node: the G_R vertex anchored there (-1 if none).
  std::vector<int> vertex_of_node;
  /// Proper effects per CFG node (kept for tests / reporting).
  std::vector<ir::EffectMap> effects_of;
  bool ok = false;

  [[nodiscard]] int version_count(ir::ArrayId a) const {
    return versions[static_cast<std::size_t>(a)].size();
  }
};

/// Runs the full construction. Errors (ambiguous references, multiple
/// leaving mappings, realign onto an undistributed template) are reported
/// to `diags`; `ok` is false if any error was found.
Analysis analyze(const ir::Program& program, DiagnosticEngine& diags);

}  // namespace hpfc::remap
