#include "remap/build.hpp"

#include <algorithm>
#include <optional>
#include <ranges>
#include <sstream>

#include "remap/fixpoint.hpp"
#include "support/check.hpp"

namespace hpfc::remap {

namespace {

using ir::ArrayId;
using ir::CfgKind;
using ir::CfgNode;
using ir::TemplateId;
using mapping::ConcreteLayout;
using mapping::Distribution;
using mapping::FullMapping;

/// Sorted-unique small int set (insert_sorted / merge_sorted).
using IdSet = std::vector<int>;

/// Interner for FullMappings and Distributions.
struct Universe {
  std::vector<FullMapping> fms;
  std::vector<Distribution> dists;

  int intern_fm(const FullMapping& fm) {
    for (std::size_t i = 0; i < fms.size(); ++i)
      if (fms[i] == fm) return static_cast<int>(i);
    fms.push_back(fm);
    return static_cast<int>(fms.size()) - 1;
  }
  int intern_dist(const Distribution& d) {
    for (std::size_t i = 0; i < dists.size(); ++i)
      if (dists[i] == d) return static_cast<int>(i);
    dists.push_back(d);
    return static_cast<int>(dists.size()) - 1;
  }
};

/// The forward dataflow value: per array the set of possible two-level
/// mappings, per template the set of possible distributions.
struct MapState {
  std::vector<IdSet> arrays;             ///< indexed by ArrayId -> fm ids
  std::map<TemplateId, IdSet> templates; ///< template -> dist ids

  bool merge_from(const MapState& other) {
    bool changed = false;
    for (std::size_t a = 0; a < arrays.size(); ++a)
      changed |= merge_sorted(arrays[a], other.arrays[a]);
    for (const auto& [t, ds] : other.templates)
      changed |= merge_sorted(templates[t], ds);
    return changed;
  }
};

class Builder {
 public:
  Builder(const ir::Program& program, DiagnosticEngine& diags)
      : program_(program), diags_(diags) {}

  Analysis run() {
    Analysis result;
    result.cfg = ir::Cfg::build(program_);
    cfg_ = &result.cfg;
    remap_nodes_ = remap_nodes_in_order();
    const int n = cfg_->size();
    const int num_arrays = static_cast<int>(program_.arrays.size());

    in_.assign(static_cast<std::size_t>(n), empty_state(num_arrays));
    out_.assign(static_cast<std::size_t>(n), empty_state(num_arrays));
    propagate_mappings();

    result.versions.resize(static_cast<std::size_t>(num_arrays));
    versions_ = &result.versions;
    intern_versions();

    compute_remapped();
    check_references(result);
    compute_effects(result);
    build_graph(result);
    propagate_live_regions(result);

    result.ok = !diags_.has_errors();
    return result;
  }

 private:
  MapState empty_state(int num_arrays) const {
    MapState s;
    s.arrays.resize(static_cast<std::size_t>(num_arrays));
    return s;
  }

  // ---- forward mapping propagation ------------------------------------

  MapState entry_state() {
    MapState s = empty_state(static_cast<int>(program_.arrays.size()));
    for (const ArrayId a : program_.mapped_arrays()) {
      const FullMapping fm = program_.initial_mapping(a);
      insert_sorted(s.arrays[static_cast<std::size_t>(a)],
                    universe_.intern_fm(fm));
    }
    for (std::size_t t = 0; t < program_.templates.size(); ++t) {
      const auto& decl = program_.templates[t];
      if (decl.has_initial_dist)
        insert_sorted(s.templates[static_cast<int>(t)],
                      universe_.intern_dist(decl.initial_dist));
    }
    return s;
  }

  /// The paper's "impact" function lifted to whole states.
  MapState transfer(const CfgNode& node, MapState state) {
    switch (node.kind) {
      case CfgKind::Plain: {
        if (const auto* realign = std::get_if<ir::RealignStmt>(&node.stmt->node)) {
          apply_realign(state, *realign, node.stmt->loc);
        } else if (const auto* redist =
                       std::get_if<ir::RedistributeStmt>(&node.stmt->node)) {
          apply_redistribute(state, *redist);
        }
        return state;
      }
      case CfgKind::CallPre: {
        const auto& call = std::get<ir::CallStmt>(node.stmt->node);
        const auto& itf = program_.interface(call.interface_id);
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          const ArrayId a = call.args[i];
          if (!program_.array(a).has_mapping) continue;
          state.arrays[static_cast<std::size_t>(a)] = {
              universe_.intern_fm(itf.dummies[i].required)};
        }
        return state;
      }
      case CfgKind::CallPost: {
        // Restore: the mapping state after the call is the state that
        // reached the CallPre vertex (Figure 18). The chain pre->call->post
        // is built with consecutive node ids.
        const int pre = node.id - 2;
        HPFC_ASSERT(cfg_->node(pre).kind == CfgKind::CallPre);
        const auto& call = std::get<ir::CallStmt>(node.stmt->node);
        for (const ArrayId a : call.args) {
          if (!program_.array(a).has_mapping) continue;
          state.arrays[static_cast<std::size_t>(a)] =
              in_[static_cast<std::size_t>(pre)]
                  .arrays[static_cast<std::size_t>(a)];
        }
        return state;
      }
      default:
        return state;
    }
  }

  void apply_realign(MapState& state, const ir::RealignStmt& realign,
                     SourceLoc loc) {
    const TemplateId t = realign.target_template;
    const auto& tdecl = program_.template_decl(t);
    IdSet dist_ids = state.templates[t];
    if (dist_ids.empty()) {
      if (!realign_error_reported_) {
        diags_.error(DiagId::BadMapping, loc,
                     "realign onto template " + tdecl.name +
                         " which has no distribution here");
        realign_error_reported_ = true;
      }
      return;
    }
    IdSet fms;
    for (const int d : dist_ids) {
      FullMapping fm;
      fm.template_id = t;
      fm.template_shape = tdecl.shape;
      fm.align = realign.align;
      fm.dist = universe_.dists[static_cast<std::size_t>(d)];
      insert_sorted(fms, universe_.intern_fm(fm));
    }
    state.arrays[static_cast<std::size_t>(realign.array)] = std::move(fms);
  }

  void apply_redistribute(MapState& state, const ir::RedistributeStmt& redist) {
    const TemplateId t = redist.target_template;
    const int did = universe_.intern_dist(redist.dist);
    state.templates[t] = {did};
    for (auto& fm_set : state.arrays) {
      IdSet updated;
      for (const int id : fm_set) {
        const FullMapping& fm = universe_.fms[static_cast<std::size_t>(id)];
        if (fm.template_id != t) {
          insert_sorted(updated, id);
          continue;
        }
        FullMapping changed = fm;
        changed.dist = redist.dist;
        insert_sorted(updated, universe_.intern_fm(changed));
      }
      fm_set = std::move(updated);
    }
  }

  void propagate_mappings() {
    out_[static_cast<std::size_t>(cfg_->entry())] = entry_state();
    // A CallPost step also reads its CallPre's incoming state, which no
    // CFG edge carries.
    const auto dependents = [&](int n) {
      std::vector<int> nodes = cfg_->node(n).succs;
      if (cfg_->node(n).kind == CfgKind::CallPre) nodes.push_back(n + 2);
      return nodes;
    };
    solve_fixpoint(cfg_->size(), cfg_->rpo(), dependents, [&](int n) {
      if (n == cfg_->entry()) return false;
      const CfgNode& node = cfg_->node(n);
      MapState in = empty_state(static_cast<int>(program_.arrays.size()));
      for (const int p : node.preds)
        in.merge_from(out_[static_cast<std::size_t>(p)]);
      MapState out = transfer(node, in);
      // merge_from detects growth; states are monotone so replacing with
      // the merged value is the standard fixpoint step.
      const bool in_grew = in_[static_cast<std::size_t>(n)].merge_from(in);
      const bool out_grew = out_[static_cast<std::size_t>(n)].merge_from(out);
      return in_grew || out_grew;
    });
  }

  // ---- version interning ----------------------------------------------

  /// Layout (and version) of one interned full mapping for one array.
  int version_of_fm(ArrayId a, int fm_id, bool intern) {
    const auto key = std::pair<int, int>(a, fm_id);
    const auto it = fm_version_.find(key);
    if (it != fm_version_.end()) return it->second;
    const ConcreteLayout layout =
        universe_.fms[static_cast<std::size_t>(fm_id)].normalize(
            program_.array(a).shape);
    auto& table = (*versions_)[static_cast<std::size_t>(a)];
    int v = table.find(layout);
    if (v < 0) {
      HPFC_ASSERT_MSG(intern, "reaching layout was never interned");
      v = table.intern(layout, universe_.fms[static_cast<std::size_t>(fm_id)]);
    }
    fm_version_[key] = v;
    return v;
  }

  IdSet versions_of(const MapState& state, ArrayId a) {
    IdSet vs;
    for (const int fm : state.arrays[static_cast<std::size_t>(a)])
      insert_sorted(vs, version_of_fm(a, fm, /*intern=*/true));
    return vs;
  }

  void intern_versions() {
    // Version 0 is the initial mapping (the paper's A_0).
    for (const ArrayId a : program_.mapped_arrays()) {
      const FullMapping fm = program_.initial_mapping(a);
      const int v = version_of_fm(a, universe_.intern_fm(fm), /*intern=*/true);
      HPFC_ASSERT(v == 0);
    }
    // Then leaving layouts, in source order of the remapping statements.
    for (const int n : remap_nodes_) {
      for (const ArrayId a : targeted_arrays(cfg_->node(n)))
        (void)versions_of(out_[static_cast<std::size_t>(n)], a);
    }
  }

  /// Remap-capable CFG nodes ordered by statement id (source order), calls
  /// contributing their pre before their post vertex.
  std::vector<int> remap_nodes_in_order() const {
    std::vector<int> nodes;
    for (const auto& node : cfg_->nodes()) {
      switch (node.kind) {
        case CfgKind::Plain:
          if (node.stmt != nullptr &&
              (std::holds_alternative<ir::RealignStmt>(node.stmt->node) ||
               std::holds_alternative<ir::RedistributeStmt>(node.stmt->node)))
            nodes.push_back(node.id);
          break;
        case CfgKind::CallPre:
        case CfgKind::CallPost:
          nodes.push_back(node.id);
          break;
        default:
          break;
      }
    }
    std::stable_sort(nodes.begin(), nodes.end(), [this](int x, int y) {
      const auto& nx = cfg_->node(x);
      const auto& ny = cfg_->node(y);
      if (nx.stmt->id != ny.stmt->id) return nx.stmt->id < ny.stmt->id;
      return nx.id < ny.id;  // pre before post of the same call
    });
    return nodes;
  }

  /// Arrays a remap-capable node syntactically targets.
  std::vector<ArrayId> targeted_arrays(const CfgNode& node) const {
    std::vector<ArrayId> result;
    if (node.kind == CfgKind::Plain) {
      if (const auto* realign = std::get_if<ir::RealignStmt>(&node.stmt->node)) {
        if (program_.array(realign->array).has_mapping)
          result.push_back(realign->array);
      } else if (const auto* redist =
                     std::get_if<ir::RedistributeStmt>(&node.stmt->node)) {
        // Every array that may currently be aligned with the template.
        const auto& in = in_[static_cast<std::size_t>(node.id)];
        for (std::size_t a = 0; a < in.arrays.size(); ++a) {
          for (const int fm : in.arrays[a]) {
            if (universe_.fms[static_cast<std::size_t>(fm)].template_id ==
                redist->target_template) {
              result.push_back(static_cast<ArrayId>(a));
              break;
            }
          }
        }
      }
    } else if (node.kind == CfgKind::CallPre || node.kind == CfgKind::CallPost) {
      const auto& call = std::get<ir::CallStmt>(node.stmt->node);
      for (const ArrayId a : call.args)
        if (program_.array(a).has_mapping) result.push_back(a);
    }
    return result;
  }

  // ---- remapped sets ----------------------------------------------------

  void compute_remapped() {
    remapped_.assign(static_cast<std::size_t>(cfg_->size()), {});
    for (const int n : remap_nodes_) {
      const CfgNode& node = cfg_->node(n);
      for (const ArrayId a : targeted_arrays(node)) {
        const IdSet reach = versions_of(in_[static_cast<std::size_t>(n)], a);
        const IdSet leave = versions_of(out_[static_cast<std::size_t>(n)], a);
        if (reach != leave)
          remapped_[static_cast<std::size_t>(n)].push_back(a);
      }
    }
    // The exit performs the argument copy-back: dummies whose reaching
    // state is not exactly the initial version.
    const int exit = cfg_->exit();
    for (const ArrayId a : program_.mapped_arrays()) {
      if (!program_.array(a).is_dummy) continue;
      const IdSet reach = versions_of(in_[static_cast<std::size_t>(exit)], a);
      if (!(reach.size() == 1 && reach[0] == 0))
        remapped_[static_cast<std::size_t>(exit)].push_back(a);
    }
  }

  bool is_remapped(int node, ArrayId a) const {
    const auto& list = remapped_[static_cast<std::size_t>(node)];
    return std::find(list.begin(), list.end(), a) != list.end();
  }

  // ---- references --------------------------------------------------------

  void check_references(Analysis& result) {
    result.ref_versions.assign(static_cast<std::size_t>(cfg_->size()), {});
    for (const auto& node : cfg_->nodes()) {
      std::vector<ArrayId> referenced;
      if (node.kind == CfgKind::Plain && node.stmt != nullptr) {
        if (const auto* ref = std::get_if<ir::RefStmt>(&node.stmt->node)) {
          referenced = ref->reads;
          referenced.insert(referenced.end(), ref->writes.begin(),
                            ref->writes.end());
          referenced.insert(referenced.end(), ref->defines.begin(),
                            ref->defines.end());
        }
      } else if (node.kind == CfgKind::Branch) {
        referenced = std::get<ir::IfStmt>(node.stmt->node).cond_reads;
      } else if (node.kind == CfgKind::Call) {
        const auto& call = std::get<ir::CallStmt>(node.stmt->node);
        referenced = call.args;
      }
      for (const ArrayId a : referenced) {
        if (!program_.array(a).has_mapping) continue;
        const IdSet vs = versions_of(in_[static_cast<std::size_t>(node.id)], a);
        if (vs.empty()) continue;
        if (vs.size() > 1) {
          std::ostringstream os;
          os << "reference to " << program_.array(a).name
             << " under an ambiguous mapping (" << vs.size()
             << " possible placements) — forbidden by restriction 1";
          diags_.error(DiagId::AmbiguousReference,
                       node.stmt != nullptr ? node.stmt->loc : SourceLoc{},
                       os.str());
          continue;
        }
        result.ref_versions[static_cast<std::size_t>(node.id)][a] = vs[0];
      }
    }
  }

  // ---- backward effects ---------------------------------------------------

  ir::EffectMap proper_effects(const CfgNode& node) const {
    ir::EffectMap effects;
    const auto add = [&](ArrayId a, ir::Use use) {
      if (!program_.array(a).has_mapping) return;
      const auto it = effects.find(a);
      effects[a] = it == effects.end() ? use : it->second.merge(use);
    };
    switch (node.kind) {
      case CfgKind::Plain: {
        if (node.stmt == nullptr) break;
        if (const auto* ref = std::get_if<ir::RefStmt>(&node.stmt->node)) {
          // reads first, then writes: R.then(W) etc. handled per array.
          ir::EffectMap reads, writes;
          for (const ArrayId a : ref->reads) reads[a] = ir::Use::read();
          for (const ArrayId a : ref->writes) writes[a] = ir::Use::write();
          for (const ArrayId a : ref->defines) {
            const auto it = writes.find(a);
            writes[a] = it == writes.end()
                            ? ir::Use::full_def()
                            : it->second.merge(ir::Use::full_def());
          }
          const ir::EffectMap combined = ir::then(reads, writes);
          for (const auto& [a, use] : combined) add(a, use);
        } else if (const auto* kill = std::get_if<ir::KillStmt>(&node.stmt->node)) {
          add(kill->array, ir::Use::full_def());
        }
        break;
      }
      case CfgKind::Branch:
        for (const ArrayId a :
             std::get<ir::IfStmt>(node.stmt->node).cond_reads)
          add(a, ir::Use::read());
        break;
      case CfgKind::Call: {
        // Argument effects per intent (Figure 25).
        const auto& call = std::get<ir::CallStmt>(node.stmt->node);
        const auto& itf = program_.interface(call.interface_id);
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          switch (itf.dummies[i].intent) {
            case ir::Intent::In: add(call.args[i], ir::Use::read()); break;
            case ir::Intent::InOut: add(call.args[i], ir::Use::write()); break;
            case ir::Intent::Out: add(call.args[i], ir::Use::full_def()); break;
          }
        }
        break;
      }
      case CfgKind::Exit:
        // Exported arguments are used after exit (Figure 22).
        for (const ArrayId a : program_.mapped_arrays()) {
          const auto& decl = program_.array(a);
          if (decl.is_dummy && decl.intent != ir::Intent::In)
            add(a, ir::Use::write());
        }
        break;
      default:
        break;
    }
    return effects;
  }

  void compute_effects(Analysis& result) {
    const int n = cfg_->size();
    result.effects_of.resize(static_cast<std::size_t>(n));
    for (const auto& node : cfg_->nodes())
      result.effects_of[static_cast<std::size_t>(node.id)] =
          proper_effects(node);

    effects_after_.assign(static_cast<std::size_t>(n), {});
    effects_from_.assign(static_cast<std::size_t>(n), {});
    const auto preds = [&](int id) -> const auto& {
      return cfg_->node(id).preds;
    };
    solve_fixpoint(n, std::views::reverse(cfg_->rpo()), preds, [&](int id) {
      const auto node = static_cast<std::size_t>(id);
      // Seed the fold with the first successor's map: ir::merge treats
      // absent arrays as none()-on-that-path, so an empty accumulator
      // would wrongly mark every use as passing for single-successor
      // nodes.
      const auto& succs = cfg_->node(id).succs;
      ir::EffectMap after;
      for (std::size_t i = 0; i < succs.size(); ++i) {
        const auto& next = effects_from_[static_cast<std::size_t>(succs[i])];
        after = i == 0 ? next : ir::merge(after, next);
      }
      ir::EffectMap from = ir::then(result.effects_of[node], after);
      for (const ArrayId a : remapped_[node]) from.erase(a);
      effects_after_[node] = std::move(after);
      if (from == effects_from_[node]) return false;
      effects_from_[node] = std::move(from);
      return true;
    });
  }

  ir::Use use_after(int node, ArrayId a) const {
    const auto& map = effects_after_[static_cast<std::size_t>(node)];
    const auto it = map.find(a);
    return it == map.end() ? ir::Use::none() : it->second;
  }

  // ---- graph construction ---------------------------------------------

  void build_graph(Analysis& result) {
    RemapGraph& graph = result.graph;
    result.vertex_of_node.assign(static_cast<std::size_t>(cfg_->size()), -1);

    const int vc = graph.add_vertex(VertexKind::CallCtx, cfg_->entry(), "C");
    const int v0 = graph.add_vertex(VertexKind::Entry, cfg_->entry(), "0");

    int remap_counter = 0;
    int call_counter = 0;
    std::map<int, int> call_index;  // call stmt id -> call order
    for (const int n : remap_nodes_) {
      const CfgNode& node = cfg_->node(n);
      std::string name;
      if (node.kind == CfgKind::Plain) {
        name = node.stmt->label.empty()
                   ? std::to_string(++remap_counter)
                   : node.stmt->label;
      } else {
        auto [it, inserted] = call_index.try_emplace(node.stmt->id, 0);
        if (inserted) it->second = ++call_counter;
        name = (node.kind == CfgKind::CallPre ? "b" : "a") +
               std::to_string(it->second);
      }
      const int v = graph.add_vertex(node.kind == CfgKind::CallPre
                                         ? VertexKind::CallPre
                                     : node.kind == CfgKind::CallPost
                                         ? VertexKind::CallPost
                                         : VertexKind::Remap,
                                     n, std::move(name));
      result.vertex_of_node[static_cast<std::size_t>(n)] = v;
    }
    const int ve = graph.add_vertex(VertexKind::Exit, cfg_->exit(), "E");
    graph.set_special(vc, v0, ve);

    // ---- labels.
    for (const ArrayId a : program_.mapped_arrays()) {
      const auto& decl = program_.array(a);
      const int origin = decl.is_dummy ? vc : v0;
      ArrayLabel label;
      label.leaving = {0};
      label.use = use_after(cfg_->entry(), a);
      graph.vertex(origin).arrays[a] = std::move(label);
    }
    for (const int n : remap_nodes_) {
      const int v = result.vertex_of_node[static_cast<std::size_t>(n)];
      if (v < 0) continue;
      for (const ArrayId a : remapped_[static_cast<std::size_t>(n)]) {
        ArrayLabel label;
        label.reaching = versions_of(in_[static_cast<std::size_t>(n)], a);
        label.leaving = versions_of(out_[static_cast<std::size_t>(n)], a);
        label.use = use_after(n, a);
        if (label.leaving.size() > 1 &&
            graph.vertex(v).kind != VertexKind::CallPost) {
          diags_.error(
              DiagId::MultipleLeavingMappings,
              cfg_->node(n).stmt != nullptr ? cfg_->node(n).stmt->loc
                                            : SourceLoc{},
              "array " + program_.array(a).name + " has " +
                  std::to_string(label.leaving.size()) +
                  " leaving mappings at one remapping statement (Figure 21)");
        }
        graph.vertex(v).arrays[a] = std::move(label);
      }
    }
    // Exit labels: copy-back for remapped dummies; cleanup scope for all.
    for (const ArrayId a : program_.mapped_arrays()) {
      ArrayLabel label;
      label.reaching = versions_of(in_[static_cast<std::size_t>(cfg_->exit())], a);
      const auto& decl = program_.array(a);
      if (decl.is_dummy && is_remapped(cfg_->exit(), a)) label.leaving = {0};
      const auto effects =
          result.effects_of[static_cast<std::size_t>(cfg_->exit())];
      const auto it = effects.find(a);
      label.use = it == effects.end() ? ir::Use::none() : it->second;
      graph.vertex(ve).arrays[a] = std::move(label);
    }

    build_edges(result);
  }

  void build_edges(Analysis& result) {
    RemapGraph& graph = result.graph;
    const int n = cfg_->size();
    // Backward pair propagation: per node, per array, the set of G_R
    // vertices whose remapping of that array is reachable with no
    // intermediate remapping (RemappedAfter / RemappedFrom, Appendix B).
    using PairSet = std::map<ArrayId, IdSet>;
    std::vector<PairSet> after(static_cast<std::size_t>(n));
    std::vector<PairSet> from(static_cast<std::size_t>(n));

    const auto preds = [&](int id) -> const auto& {
      return cfg_->node(id).preds;
    };
    solve_fixpoint(n, std::views::reverse(cfg_->rpo()), preds, [&](int id) {
      const auto node = static_cast<std::size_t>(id);
      PairSet new_after;
      for (const int s : cfg_->node(id).succs)
        for (const auto& [a, vs] : from[static_cast<std::size_t>(s)])
          merge_sorted(new_after[a], vs);
      // The node's vertex terminates and originates the pairs of the
      // arrays it remaps (at the exit: of every mapped array).
      PairSet new_from = new_after;
      const bool exit = id == cfg_->exit();
      const int v = exit ? graph.ve() : result.vertex_of_node[node];
      if (v >= 0)
        for (const ArrayId a :
             exit ? program_.mapped_arrays() : remapped_[node])
          new_from[a] = {v};
      after[node] = std::move(new_after);
      if (new_from == from[node]) return false;
      from[node] = std::move(new_from);
      return true;
    });

    // Emit edges grouped by (from, to).
    const auto emit = [&](int from_vertex, int anchor_node,
                          const std::vector<ArrayId>& arrays) {
      std::map<int, std::vector<ArrayId>> grouped;
      for (const ArrayId a : arrays) {
        const auto it = after[static_cast<std::size_t>(anchor_node)].find(a);
        if (it == after[static_cast<std::size_t>(anchor_node)].end()) continue;
        for (const int target : it->second) grouped[target].push_back(a);
      }
      for (auto& [target, as] : grouped)
        graph.add_edge(from_vertex, target, std::move(as));
    };

    std::vector<ArrayId> dummies, locals;
    for (const ArrayId a : program_.mapped_arrays())
      (program_.array(a).is_dummy ? dummies : locals).push_back(a);
    emit(graph.vc(), cfg_->entry(), dummies);
    emit(graph.v0(), cfg_->entry(), locals);
    for (const int node_id : remap_nodes_) {
      const int v = result.vertex_of_node[static_cast<std::size_t>(node_id)];
      if (v >= 0)
        emit(v, node_id, remapped_[static_cast<std::size_t>(node_id)]);
    }
  }

  /// §4.3 region refinement: a forward *must* analysis. A live-region
  /// assertion survives until the array is written (its liveness could
  /// grow back) or remapped (the restriction was consumed by that copy);
  /// at joins the region is kept only when every incoming path agrees.
  void propagate_live_regions(Analysis& result) {
    using RegionState = std::map<ArrayId, ir::Region>;
    // Per node, the IN and OUT states; none until the node is reached.
    const auto size = static_cast<std::size_t>(cfg_->size());
    std::vector<std::optional<RegionState>> in(size), out(size);

    const auto transfer_regions = [&](const CfgNode& node, RegionState state) {
      // Remapped arrays consume their region.
      for (const ArrayId a : remapped_[static_cast<std::size_t>(node.id)])
        state.erase(a);
      // Writes invalidate; a fresh assertion installs.
      const auto& effects = result.effects_of[static_cast<std::size_t>(node.id)];
      for (const auto& [a, use] : effects)
        if (use.may_write) state.erase(a);
      if (node.kind == CfgKind::Plain && node.stmt != nullptr) {
        if (const auto* live =
                std::get_if<ir::LiveRegionStmt>(&node.stmt->node)) {
          if (program_.array(live->array).has_mapping)
            state[live->array] = live->region;
        }
      }
      return state;
    };

    const auto succs = [&](int id) -> const auto& {
      return cfg_->node(id).succs;
    };
    solve_fixpoint(cfg_->size(), cfg_->rpo(), succs, [&](int id) {
      // IN is the must-intersection of the reached predecessors' OUT
      // states, keeping only agreeing entries; the entry starts empty.
      auto& meet = in[static_cast<std::size_t>(id)];
      meet.reset();
      for (const int p : cfg_->node(id).preds) {
        const auto& other = out[static_cast<std::size_t>(p)];
        if (!other) continue;
        if (!meet) {
          meet = other;
          continue;
        }
        for (auto it = meet->begin(); it != meet->end();) {
          const auto found = other->find(it->first);
          if (found == other->end() || !(found->second == it->second))
            it = meet->erase(it);
          else
            ++it;
        }
      }
      if (!meet && id == cfg_->entry()) meet.emplace();
      if (!meet) return false;
      RegionState new_out = transfer_regions(cfg_->node(id), *meet);
      auto& old_out = out[static_cast<std::size_t>(id)];
      if (old_out && *old_out == new_out) return false;
      old_out = std::move(new_out);
      return true;
    });

    // Attach the converged IN region to the vertex anchored at each node.
    for (const int id : cfg_->rpo()) {
      const int v = result.vertex_of_node[static_cast<std::size_t>(id)];
      const auto& meet = in[static_cast<std::size_t>(id)];
      if (v < 0 || !meet) continue;
      for (auto& [a, label] : result.graph.vertex(v).arrays) {
        const auto it = meet->find(a);
        label.live_region = it == meet->end() ? ir::Region{} : it->second;
      }
    }
  }

  const ir::Program& program_;
  DiagnosticEngine& diags_;
  const ir::Cfg* cfg_ = nullptr;
  /// remap_nodes_in_order() of cfg_, computed once per analysis.
  std::vector<int> remap_nodes_;
  Universe universe_;
  std::vector<MapState> in_;
  std::vector<MapState> out_;
  std::vector<mapping::VersionTable>* versions_ = nullptr;
  std::map<std::pair<int, int>, int> fm_version_;
  std::vector<std::vector<ArrayId>> remapped_;
  std::vector<ir::EffectMap> effects_after_;
  std::vector<ir::EffectMap> effects_from_;
  bool realign_error_reported_ = false;
};

}  // namespace

Analysis analyze(const ir::Program& program, DiagnosticEngine& diags) {
  Builder builder(program, diags);
  return builder.run();
}

}  // namespace hpfc::remap
