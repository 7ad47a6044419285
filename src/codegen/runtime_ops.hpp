// The executable form of the paper's generated copy/guard code (Figures
// 19-20): small structured op trees attached to CFG nodes. The runtime
// interpreter executes them against distributed array storage; the text
// emitter prints them in the paper's pseudo-code shape.
#pragma once

#include <string>
#include <vector>

#include "ir/program.hpp"

namespace hpfc::codegen {

enum class OpKind {
  IfStatusNe,  ///< body runs when status(array) != version
  IfStatusEq,  ///< body runs when status(array) == version
  IfNotLive,   ///< body runs when !live(array, version)
  IfLive,      ///< body runs when live(array, version)
  Allocate,    ///< allocate storage for (array, version) if needed
  Copy,        ///< (array, src_version) -> (array, version): communication
  SetLive,     ///< live(array, version) = flag
  SetStatus,   ///< status(array) = version
  Free,        ///< release (array, version) storage
  SaveStatus,  ///< slot = status(array), before a call (Figure 18)
  IfSavedEq,   ///< body runs when saved slot == version (restore dispatch)
};

struct Op {
  OpKind kind = OpKind::Allocate;
  ir::ArrayId array = -1;
  int version = -1;
  int src_version = -1;  ///< Copy only
  bool flag = false;     ///< SetLive only
  int slot = -1;         ///< SaveStatus / IfSavedEq
  /// Copy only: index of this copy's transfer-program cache slot. Copies
  /// with the same (array, versions, region) share a slot, so the runtime
  /// compiles each distinct redistribution once and indexes a flat table.
  int plan_slot = -1;
  /// Copy only: the remapping vertex's shared communication round. Every
  /// Copy emitted for one REALIGN/REDISTRIBUTE vertex carries the same
  /// group id, so the runtime can aggregate the copies that actually fire
  /// into a single fused exchange superstep instead of one per copy.
  int copy_group = -1;
  /// Copy only: when non-empty, communication is restricted to this
  /// rectangle (§4.3 live-region refinement).
  ir::Region region;
  std::vector<Op> body;  ///< for the If* kinds
};

using OpList = std::vector<Op>;

struct RuntimeProgram {
  /// Guard/copy code per CFG node (CallPost code runs after the call's own
  /// effects; everything else before the node's semantics).
  std::vector<OpList> at_node;
  OpList at_entry;  ///< status / live-flag initialization (Figure 19 loop 1)
  OpList at_exit;   ///< final cleanup (Figure 19 last loop)
  int save_slots = 0;
  int plan_slots = 0;   ///< number of distinct Copy plan-cache slots
  int copy_groups = 0;  ///< number of per-vertex fused communication rounds

  [[nodiscard]] std::string to_text(const ir::Program& program) const;

  /// Counts ops of a kind across the whole program (tests / reports).
  [[nodiscard]] int count(OpKind kind) const;
};

}  // namespace hpfc::codegen
