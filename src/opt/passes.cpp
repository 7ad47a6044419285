#include "opt/passes.hpp"

#include <algorithm>
#include <ranges>
#include <set>
#include <utility>

#include "remap/fixpoint.hpp"
#include "support/check.hpp"

namespace hpfc::opt {

namespace {

using ir::ArrayId;
using remap::ArrayLabel;
using remap::insert_sorted;
using remap::merge_sorted;
using remap::RemapGraph;
using remap::RemapVertex;
using remap::VertexKind;

bool kept(const ArrayLabel& label) {
  return !label.removed && !label.leaving.empty();
}

bool edge_has(const remap::RemapEdge& edge, ArrayId a) {
  return std::find(edge.arrays.begin(), edge.arrays.end(), a) !=
         edge.arrays.end();
}

/// A G_R problem's direction: a backward one reads successors' labels.
constexpr bool kBackward = true;
constexpr bool kForward = false;

/// Solves a dataflow problem on G_R's labels, visiting vertices in id
/// order. `step(label, reads)` updates one (vertex, array) label from
/// the labels of that array across the edges carrying it, and returns
/// true when it changed the label.
template <typename Step>
void solve_labels(RemapGraph& graph, bool backward, Step&& step) {
  const auto edge = [&](int e) -> const remap::RemapEdge& {
    return graph.edges()[static_cast<std::size_t>(e)];
  };
  // A vertex's dependents are the vertices whose steps read its labels:
  // its predecessors in a backward problem, its successors in a forward one.
  const auto dependents = [&](int v) {
    return (backward ? graph.in_edges(v) : graph.out_edges(v)) |
           std::views::transform(
               [&](int e) { return backward ? edge(e).from : edge(e).to; });
  };
  std::vector<const ArrayLabel*> reads;
  const auto visit = [&](int v) {
    bool changed = false;
    for (auto& [a, label] : graph.vertex(v).arrays) {
      reads.clear();
      for (const int e : backward ? graph.out_edges(v) : graph.in_edges(v)) {
        if (!edge_has(edge(e), a)) continue;
        const auto& arrays =
            graph.vertex(backward ? edge(e).to : edge(e).from).arrays;
        const auto it = arrays.find(a);
        if (it != arrays.end()) reads.push_back(&it->second);
      }
      changed |= step(label, reads);
    }
    return changed;
  };
  const int size = static_cast<int>(graph.vertices().size());
  remap::solve_fixpoint(size, std::views::iota(0, size), dependents, visit);
}

}  // namespace

void remove_useless_remappings(remap::Analysis& analysis, OptReport& report) {
  RemapGraph& graph = analysis.graph;

  // Figure 22 import floors: an imported dummy argument's initial copy
  // carries caller-defined values, so its entry label cannot drop to N
  // (the first remapping must still transfer the imported data).
  {
    RemapVertex& vc = graph.vertex(graph.vc());
    for (auto& [a, label] : vc.arrays) {
      (void)a;
      label.use = label.use.merge(ir::Use::full_def());
    }
  }

  // Backward value-liveness fixpoint: value_needed(v, a) holds when the
  // array value arriving at v is read at or after v before being fully
  // redefined on some path. A genuine all-paths full def (D, passes=false)
  // screens downstream need; N and merged-D labels pass the value through,
  // so the need of their successors flows back. Codegen consults the
  // result for the §5.2 dead-transfer skip: without it a D label merged
  // from an {N, D} branch pair would skip a copy whose value the N path
  // still carries into a later consumer (the seed-306 divergence).
  for (RemapVertex& v : graph.vertices())
    for (auto& entry : v.arrays) entry.second.value_needed = false;
  solve_labels(graph, kBackward, [](ArrayLabel& label, const auto& succs) {
    if (label.value_needed) return false;
    label.value_needed = label.use.may_read;
    if (label.use.passes)
      for (const ArrayLabel* succ : succs)
        label.value_needed |= succ->value_needed;
    return label.value_needed;
  });

  // Phase 1 (Appendix C): delete leaving mappings whose use is N. An
  // *origin* label (empty reaching set: the entry materialization of the
  // array's initial values) is the bottom of every reaching chain, so it
  // survives whenever the value is still live downstream — removing it
  // would orphan every consumer that re-sources through removed vertices
  // (the seed-305 class of bug: entry label N, later call-site copy W).
  for (RemapVertex& v : graph.vertices()) {
    bool active_before = false;
    bool active_after = false;
    for (auto& [a, label] : v.arrays) {
      if (kept(label)) active_before = true;
      if (!label.leaving.empty() && label.use.is_none() && !label.removed &&
          !(label.reaching.empty() && label.value_needed)) {
        label.removed = true;
        ++report.removed_remappings;
      }
      if (kept(label)) active_after = true;
    }
    if (active_before && !active_after &&
        (v.kind == VertexKind::Remap || v.kind == VertexKind::CallPre ||
         v.kind == VertexKind::CallPost)) {
      ++report.vertices_deactivated;
    }
  }

  // Phase 2: recompute reaching sets. A removed vertex no longer produces
  // its leaving copy, so reaching mappings flow through it (transitive
  // closure over unreferenced paths).
  for (RemapVertex& v : graph.vertices())
    for (auto& entry : v.arrays) entry.second.reaching.clear();

  solve_labels(graph, kForward, [](ArrayLabel& label, const auto& preds) {
    bool changed = false;
    for (const ArrayLabel* pred : preds)
      changed |= merge_sorted(label.reaching,
                              kept(*pred) ? pred->leaving : pred->reaching);
    return changed;
  });
}

bool validate_theorem1(const remap::Analysis& analysis) {
  const RemapGraph& graph = analysis.graph;
  for (const RemapVertex& v : graph.vertices()) {
    for (const auto& [a, label] : v.arrays) {
      // Collect the path-derived reaching set by backward DFS through
      // vertices removed for `a`.
      std::vector<int> expected;
      std::set<int> visited;
      std::vector<int> stack = {v.id};
      while (!stack.empty()) {
        const int current = stack.back();
        stack.pop_back();
        for (const int e : graph.in_edges(current)) {
          const auto& edge = graph.edges()[static_cast<std::size_t>(e)];
          if (!edge_has(edge, a)) continue;
          const RemapVertex& pred = graph.vertex(edge.from);
          const auto it = pred.arrays.find(a);
          if (it == pred.arrays.end()) continue;
          if (kept(it->second)) {
            for (const int ver : it->second.leaving)
              insert_sorted(expected, ver);
          } else if (visited.insert(pred.id).second) {
            stack.push_back(pred.id);
          }
        }
      }
      if (expected != label.reaching) return false;
    }
  }
  return true;
}

void compute_maybe_live(remap::Analysis& analysis) {
  RemapGraph& graph = analysis.graph;
  // Initialization: directly useful mappings — the kept leaving copies.
  for (RemapVertex& v : graph.vertices())
    for (auto& [a, label] : v.arrays)
      label.maybe_live = kept(label) ? label.leaving : std::vector<int>{};

  // Backward propagation along edges where the leaving copy is not
  // modified (U in {N, R}): other copies' values stay valid through v.
  solve_labels(graph, kBackward, [](ArrayLabel& label, const auto& succs) {
    bool changed = false;
    if (!label.use.may_write)
      for (const ArrayLabel* succ : succs)
        changed |= merge_sorted(label.maybe_live, succ->maybe_live);
    return changed;
  });
}

namespace {

/// Arrays a remap statement may affect, computed syntactically: for a
/// realign the array itself, for a redistribute every array initially on
/// the template or realigned onto it anywhere in the routine.
std::vector<ArrayId> affected_arrays(const ir::Program& program,
                                     const ir::Stmt& stmt) {
  std::vector<ArrayId> result;
  if (const auto* realign = std::get_if<ir::RealignStmt>(&stmt.node)) {
    result.push_back(realign->array);
    return result;
  }
  const auto* redist = std::get_if<ir::RedistributeStmt>(&stmt.node);
  if (redist == nullptr) return result;
  std::set<ArrayId> set;
  for (std::size_t a = 0; a < program.arrays.size(); ++a)
    if (program.arrays[a].has_mapping &&
        program.arrays[a].template_id == redist->target_template)
      set.insert(static_cast<ArrayId>(a));
  ir::for_each_stmt(program.body, [&](const ir::Stmt& s) {
    if (const auto* r = std::get_if<ir::RealignStmt>(&s.node))
      if (r->target_template == redist->target_template) set.insert(r->array);
  });
  result.assign(set.begin(), set.end());
  return result;
}

bool is_remap(const ir::Stmt& stmt) {
  return std::holds_alternative<ir::RealignStmt>(stmt.node) ||
         std::holds_alternative<ir::RedistributeStmt>(stmt.node);
}

bool ref_touches(const ir::Stmt& stmt, const std::set<ArrayId>& arrays) {
  const auto* ref = std::get_if<ir::RefStmt>(&stmt.node);
  if (ref == nullptr) return false;
  const auto any = [&](const std::vector<ArrayId>& list) {
    return std::any_of(list.begin(), list.end(),
                       [&](ArrayId a) { return arrays.count(a) > 0; });
  };
  return any(ref->reads) || any(ref->writes) || any(ref->defines);
}

/// Attempts the Figure 16 -> 17 motion on one loop; returns the hoisted
/// statement or nullptr.
ir::StmtPtr try_hoist_one(const ir::Program& program, ir::LoopStmt& loop) {
  if (loop.body.empty()) return nullptr;
  ir::Stmt& last = *loop.body.back();
  if (!is_remap(last)) return nullptr;
  const std::vector<ArrayId> affected = affected_arrays(program, last);
  if (affected.empty()) return nullptr;
  const std::set<ArrayId> target(affected.begin(), affected.end());

  // Scan the body prefix: the move is sound when every affected array is
  // remapped again before any reference to it (so along the back edge the
  // moved statement's copy was dead). Coverage may accumulate over several
  // remap statements; references to already re-remapped arrays are fine.
  std::set<ArrayId> remaining = target;
  for (std::size_t i = 0; i + 1 < loop.body.size() && !remaining.empty();
       ++i) {
    const ir::Stmt& s = *loop.body[i];
    if (is_remap(s)) {
      for (const ArrayId a : affected_arrays(program, s)) remaining.erase(a);
      continue;
    }
    if (std::holds_alternative<ir::RefStmt>(s.node)) {
      if (ref_touches(s, remaining)) return nullptr;
      continue;
    }
    // Conservative: any other construct in the prefix blocks the motion.
    return nullptr;
  }
  if (!remaining.empty()) return nullptr;

  ir::StmtPtr hoisted = std::move(loop.body.back());
  loop.body.pop_back();
  return hoisted;
}

int hoist_in_block(const ir::Program& program, ir::Block& block) {
  int count = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    ir::Stmt& stmt = *block[i];
    if (auto* loop = std::get_if<ir::LoopStmt>(&stmt.node)) {
      count += hoist_in_block(program, loop->body);
      while (ir::StmtPtr hoisted = try_hoist_one(program, *loop)) {
        block.insert(block.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     std::move(hoisted));
        ++count;
      }
    } else if (auto* ifs = std::get_if<ir::IfStmt>(&stmt.node)) {
      count += hoist_in_block(program, ifs->then_body);
      count += hoist_in_block(program, ifs->else_body);
    }
  }
  return count;
}

}  // namespace

int hoist_loop_invariant_remaps(ir::Program& program) {
  const int count = hoist_in_block(program, program.body);
  if (count > 0) {
    DiagnosticEngine scratch;
    program.finalize(scratch);  // renumber statements
    HPFC_ASSERT_MSG(!scratch.has_errors(),
                    "hoisting must preserve well-formedness");
  }
  return count;
}

}  // namespace hpfc::opt
