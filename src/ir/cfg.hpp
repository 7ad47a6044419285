// Control-flow graph over the structured AST. Call statements are expanded
// into a CallPre -> Call -> CallPost chain so that the implicit argument
// remappings of the paper's Figure 24 (v_b before the call, v_a after it)
// have CFG anchors; Entry and Exit nodes bracket the routine.
#pragma once

#include <vector>

#include "ir/program.hpp"

namespace hpfc::ir {

enum class CfgKind {
  Entry,
  Exit,
  Plain,     ///< ref / realign / redistribute / kill statement
  Branch,    ///< the condition of an IfStmt
  Join,      ///< synthetic merge after an if
  LoopHead,  ///< loop entry test (zero-trip loops exit from here)
  LoopLatch, ///< bottom-test of a non-zero-trip loop
  CallPre,   ///< v_b: actual -> dummy-mapped copy
  Call,      ///< the call itself (argument effects per intent, Figure 25)
  CallPost,  ///< v_a: restore the reaching mapping (Figure 18)
};

struct CfgNode {
  int id = -1;
  CfgKind kind = CfgKind::Plain;
  const Stmt* stmt = nullptr;  ///< null for Entry/Exit/Join
  std::vector<int> preds;
  std::vector<int> succs;
};

class Cfg {
 public:
  static Cfg build(const Program& program);

  [[nodiscard]] const std::vector<CfgNode>& nodes() const { return nodes_; }
  [[nodiscard]] const CfgNode& node(int id) const;
  [[nodiscard]] int entry() const { return entry_; }
  [[nodiscard]] int exit() const { return exit_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }

  /// Node ids in reverse post-order (good order for forward dataflow);
  /// iterate it backwards for backward dataflow.
  [[nodiscard]] const std::vector<int>& rpo() const { return rpo_; }

 private:
  int add_node(CfgKind kind, const Stmt* stmt);
  void add_edge(int from, int to);
  /// Builds the chain for a block; returns {first, last} node ids, or
  /// {-1, -1} for an empty block.
  std::pair<int, int> build_block(const Block& block);
  void compute_rpo();

  std::vector<CfgNode> nodes_;
  int entry_ = -1;
  int exit_ = -1;
  std::vector<int> rpo_;
};

}  // namespace hpfc::ir
