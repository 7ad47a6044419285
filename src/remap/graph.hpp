// The remapping graph G_R (paper §3, Appendix A): a contracted control-flow
// graph whose vertices are the remapping statements — explicit REALIGN /
// REDISTRIBUTE, the implicit argument remappings v_b / v_a around calls
// (Figure 24), plus the call vertex v_c (dummy arguments' initial
// mappings), entry v_0 (locals' initial mappings) and exit v_e (argument
// copy-back and cleanup). An edge (v, v') labeled A means some control-flow
// path runs from v to v' with A remapped at both ends and not in between.
//
// Per remapped array a vertex carries the paper's labels:
//   L_A(v)  leaving version(s)  — the copy referenced after the vertex
//   R_A(v)  reaching versions   — copies that may arrive at the vertex
//   U_A(v)  use qualifier       — how the leaving copy is used afterwards
//   M_A(v)  maybe-live versions — copies worth keeping (Appendix D)
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/effects.hpp"
#include "ir/program.hpp"
#include "mapping/mapping.hpp"

namespace hpfc::remap {

enum class VertexKind {
  CallCtx,   ///< v_c : dummy arguments arrive from the caller
  Entry,     ///< v_0 : local arrays' initial mappings
  Remap,     ///< an explicit realign / redistribute statement
  CallPre,   ///< v_b : actual -> dummy-mapped copy before a call
  CallPost,  ///< v_a : restore the reaching mapping after a call
  Exit,      ///< v_e : argument copy-back, full cleanup
};

const char* to_string(VertexKind kind);

/// Inserts `id` into the sorted, duplicate-free `set` (the form of every
/// version-id and mapping-id set here); true when `id` was absent.
inline bool insert_sorted(std::vector<int>& set, int id) {
  const auto it = std::lower_bound(set.begin(), set.end(), id);
  if (it != set.end() && *it == id) return false;
  set.insert(it, id);
  return true;
}

/// Unions the sorted set `from` into `into`; true when `into` grew.
inline bool merge_sorted(std::vector<int>& into, const std::vector<int>& from) {
  bool changed = false;
  for (const int id : from) changed |= insert_sorted(into, id);
  return changed;
}

/// Per-(vertex, array) labels.
struct ArrayLabel {
  std::vector<int> reaching;  ///< R_A(v), version ids, sorted
  /// L_A(v): usually one version; empty when there is no leaving copy
  /// (exit labels of locals) or after useless-remapping removal; more than
  /// one only on CallPost restore vertices (Figure 18).
  std::vector<int> leaving;
  ir::Use use;  ///< U_A(v)
  /// Set by the useless-remapping optimization (Appendix C): the copy
  /// update at this vertex is skipped entirely.
  bool removed = false;
  /// The value arriving at this vertex is read at or after it before being
  /// fully redefined on some path, so the leaving copy's data transfer
  /// cannot be skipped. Defaults to true; at O1/O2 the useless-remapping
  /// pass recomputes it first, a backward fixpoint over G_R (fixpoint.hpp).
  bool value_needed = true;
  /// M_A(v): versions that may still be used later (Appendix D); filled by
  /// the live-copy optimization. Before that pass it is empty, meaning
  /// "keep only the leaving copy".
  std::vector<int> maybe_live;
  /// §4.3 array-region refinement: when non-empty, only this rectangle of
  /// the array is live on every path reaching the vertex — the copy's
  /// communication is restricted to it.
  ir::Region live_region;
};

struct RemapVertex {
  int id = -1;
  VertexKind kind = VertexKind::Remap;
  int cfg_node = -1;
  std::string name;  ///< "C", "0", "E", or the remap statement order "1"...
  /// S(v) plus, on v_e, every mapped array (cleanup scope).
  std::map<ir::ArrayId, ArrayLabel> arrays;

  [[nodiscard]] bool remaps(ir::ArrayId a) const {
    const auto it = arrays.find(a);
    return it != arrays.end() && !it->second.leaving.empty() &&
           !it->second.removed;
  }
};

struct RemapEdge {
  int from = -1;
  int to = -1;
  std::vector<ir::ArrayId> arrays;  ///< label: arrays this edge is a path for
};

class RemapGraph {
 public:
  [[nodiscard]] int add_vertex(VertexKind kind, int cfg_node,
                               std::string name);
  void add_edge(int from, int to, std::vector<ir::ArrayId> arrays);

  [[nodiscard]] const std::vector<RemapVertex>& vertices() const {
    return vertices_;
  }
  [[nodiscard]] std::vector<RemapVertex>& vertices() { return vertices_; }
  [[nodiscard]] const RemapVertex& vertex(int id) const;
  [[nodiscard]] RemapVertex& vertex(int id);
  [[nodiscard]] const std::vector<RemapEdge>& edges() const { return edges_; }

  /// Edge indices leaving / entering a vertex.
  [[nodiscard]] const std::vector<int>& out_edges(int vertex) const;
  [[nodiscard]] const std::vector<int>& in_edges(int vertex) const;

  [[nodiscard]] int vc() const { return vc_; }
  [[nodiscard]] int v0() const { return v0_; }
  [[nodiscard]] int ve() const { return ve_; }
  void set_special(int vc, int v0, int ve);

  [[nodiscard]] std::string to_text(const ir::Program& program) const;
  [[nodiscard]] std::string to_dot(const ir::Program& program) const;

 private:
  std::vector<RemapVertex> vertices_;
  std::vector<RemapEdge> edges_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
  int vc_ = -1;
  int v0_ = -1;
  int ve_ = -1;
};

}  // namespace hpfc::remap
