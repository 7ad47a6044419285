#include "remap/graph.hpp"

#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::remap {

const char* to_string(VertexKind kind) {
  switch (kind) {
    case VertexKind::CallCtx: return "v_c";
    case VertexKind::Entry: return "v_0";
    case VertexKind::Remap: return "remap";
    case VertexKind::CallPre: return "v_b";
    case VertexKind::CallPost: return "v_a";
    case VertexKind::Exit: return "v_e";
  }
  return "?";
}

int RemapGraph::add_vertex(VertexKind kind, int cfg_node, std::string name) {
  const int id = static_cast<int>(vertices_.size());
  vertices_.push_back(RemapVertex{id, kind, cfg_node, std::move(name), {}});
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void RemapGraph::add_edge(int from, int to, std::vector<ir::ArrayId> arrays) {
  HPFC_ASSERT(from >= 0 && from < static_cast<int>(vertices_.size()));
  HPFC_ASSERT(to >= 0 && to < static_cast<int>(vertices_.size()));
  const int idx = static_cast<int>(edges_.size());
  edges_.push_back(RemapEdge{from, to, std::move(arrays)});
  out_[static_cast<std::size_t>(from)].push_back(idx);
  in_[static_cast<std::size_t>(to)].push_back(idx);
}

const RemapVertex& RemapGraph::vertex(int id) const {
  HPFC_ASSERT(id >= 0 && id < static_cast<int>(vertices_.size()));
  return vertices_[static_cast<std::size_t>(id)];
}

RemapVertex& RemapGraph::vertex(int id) {
  HPFC_ASSERT(id >= 0 && id < static_cast<int>(vertices_.size()));
  return vertices_[static_cast<std::size_t>(id)];
}

const std::vector<int>& RemapGraph::out_edges(int vertex) const {
  HPFC_ASSERT(vertex >= 0 && vertex < static_cast<int>(out_.size()));
  return out_[static_cast<std::size_t>(vertex)];
}

const std::vector<int>& RemapGraph::in_edges(int vertex) const {
  HPFC_ASSERT(vertex >= 0 && vertex < static_cast<int>(in_.size()));
  return in_[static_cast<std::size_t>(vertex)];
}

void RemapGraph::set_special(int vc, int v0, int ve) {
  vc_ = vc;
  v0_ = v0;
  ve_ = ve;
}

namespace {

std::string label_text(const ir::Program& program, ir::ArrayId a,
                       const ArrayLabel& label) {
  std::ostringstream os;
  os << program.array(a).name << " {" << join(label.reaching, ",") << "} -"
     << label.use.letter() << "-> ";
  if (label.removed) {
    os << "removed";
  } else if (label.leaving.empty()) {
    os << "-";
  } else {
    os << "{" << join(label.leaving, ",") << "}";
  }
  if (!label.maybe_live.empty())
    os << "  M={" << join(label.maybe_live, ",") << "}";
  return os.str();
}

}  // namespace

std::string RemapGraph::to_text(const ir::Program& program) const {
  std::ostringstream os;
  for (const auto& v : vertices_) {
    os << v.name << " (" << hpfc::remap::to_string(v.kind) << ", n"
       << v.cfg_node << ")\n";
    for (const auto& [a, label] : v.arrays)
      os << "    " << label_text(program, a, label) << "\n";
    for (const int e : out_[static_cast<std::size_t>(v.id)]) {
      const auto& edge = edges_[static_cast<std::size_t>(e)];
      os << "    -> " << vertices_[static_cast<std::size_t>(edge.to)].name
         << " [";
      for (std::size_t i = 0; i < edge.arrays.size(); ++i)
        os << (i ? "," : "") << program.array(edge.arrays[i]).name;
      os << "]\n";
    }
  }
  return os.str();
}

std::string RemapGraph::to_dot(const ir::Program& program) const {
  std::ostringstream os;
  os << "digraph G_R {\n  node [shape=box];\n";
  for (const auto& v : vertices_) {
    os << "  v" << v.id << " [label=\"" << v.name;
    for (const auto& [a, label] : v.arrays)
      os << "\\n" << label_text(program, a, label);
    os << "\"];\n";
  }
  for (const auto& e : edges_) {
    os << "  v" << e.from << " -> v" << e.to << " [label=\"";
    for (std::size_t i = 0; i < e.arrays.size(); ++i)
      os << (i ? "," : "") << program.array(e.arrays[i]).name;
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace hpfc::remap
