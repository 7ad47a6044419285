#include "ir/cfg.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace hpfc::ir {

const CfgNode& Cfg::node(int id) const {
  HPFC_ASSERT(id >= 0 && id < size());
  return nodes_[static_cast<std::size_t>(id)];
}

int Cfg::add_node(CfgKind kind, const Stmt* stmt) {
  const int id = size();
  nodes_.push_back(CfgNode{id, kind, stmt, {}, {}});
  return id;
}

void Cfg::add_edge(int from, int to) {
  nodes_[static_cast<std::size_t>(from)].succs.push_back(to);
  nodes_[static_cast<std::size_t>(to)].preds.push_back(from);
}

std::pair<int, int> Cfg::build_block(const Block& block) {
  int first = -1;
  int last = -1;
  const auto append = [&](int head, int tail) {
    if (first == -1) first = head;
    if (last != -1) add_edge(last, head);
    last = tail;
  };

  for (const auto& sp : block) {
    const Stmt& stmt = *sp;
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, IfStmt>) {
            const int branch = add_node(CfgKind::Branch, &stmt);
            const int join = add_node(CfgKind::Join, nullptr);
            const auto [tf, tl] = build_block(node.then_body);
            if (tf == -1) {
              add_edge(branch, join);
            } else {
              add_edge(branch, tf);
              add_edge(tl, join);
            }
            const auto [ef, el] = build_block(node.else_body);
            if (ef == -1) {
              add_edge(branch, join);
            } else {
              add_edge(branch, ef);
              add_edge(el, join);
            }
            append(branch, join);
          } else if constexpr (std::is_same_v<T, LoopStmt>) {
            const int head = add_node(CfgKind::LoopHead, &stmt);
            const auto [bf, bl] = build_block(node.body);
            if (bf == -1) {
              // Empty body: the head alone models the (no-op) loop.
              append(head, head);
            } else if (node.may_zero_trip) {
              // head -> body -> head; the loop exits from the head.
              add_edge(head, bf);
              add_edge(bl, head);
              append(head, head);
            } else {
              // Bottom-tested: head -> body -> latch; latch repeats the
              // body or exits, so the body runs at least once.
              const int latch = add_node(CfgKind::LoopLatch, &stmt);
              add_edge(head, bf);
              add_edge(bl, latch);
              add_edge(latch, bf);
              append(head, latch);
            }
          } else if constexpr (std::is_same_v<T, CallStmt>) {
            const int pre = add_node(CfgKind::CallPre, &stmt);
            const int call = add_node(CfgKind::Call, &stmt);
            const int post = add_node(CfgKind::CallPost, &stmt);
            add_edge(pre, call);
            add_edge(call, post);
            append(pre, post);
          } else {
            const int node_id = add_node(CfgKind::Plain, &stmt);
            append(node_id, node_id);
          }
        },
        stmt.node);
  }
  return {first, last};
}

Cfg Cfg::build(const Program& program) {
  Cfg cfg;
  cfg.entry_ = cfg.add_node(CfgKind::Entry, nullptr);
  cfg.exit_ = cfg.add_node(CfgKind::Exit, nullptr);
  const auto [first, last] = cfg.build_block(program.body);
  if (first == -1) {
    cfg.add_edge(cfg.entry_, cfg.exit_);
  } else {
    cfg.add_edge(cfg.entry_, first);
    cfg.add_edge(last, cfg.exit_);
  }
  cfg.compute_rpo();
  return cfg;
}

void Cfg::compute_rpo() {
  std::vector<int> postorder;
  std::vector<char> state(static_cast<std::size_t>(size()), 0);
  // Iterative DFS with an explicit stack of (node, next-successor-index).
  std::vector<std::pair<int, std::size_t>> stack;
  stack.emplace_back(entry_, 0);
  state[static_cast<std::size_t>(entry_)] = 1;
  while (!stack.empty()) {
    auto& [n, i] = stack.back();
    const auto& succs = nodes_[static_cast<std::size_t>(n)].succs;
    if (i < succs.size()) {
      const int next = succs[i++];
      if (state[static_cast<std::size_t>(next)] == 0) {
        state[static_cast<std::size_t>(next)] = 1;
        stack.emplace_back(next, 0);
      }
    } else {
      postorder.push_back(n);
      stack.pop_back();
    }
  }
  rpo_.assign(postorder.rbegin(), postorder.rend());
}

}  // namespace hpfc::ir
