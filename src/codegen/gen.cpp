#include "codegen/gen.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "support/check.hpp"

namespace hpfc::codegen {

namespace {

using ir::ArrayId;
using remap::ArrayLabel;
using remap::RemapVertex;
using remap::VertexKind;

Op make(OpKind kind, ArrayId array, int version) {
  Op op;
  op.kind = kind;
  op.array = array;
  op.version = version;
  return op;
}

class Generator {
 public:
  Generator(const ir::Program& program, const remap::Analysis& analysis,
            const CodegenOptions& options)
      : program_(program), analysis_(analysis), options_(options) {}

  RuntimeProgram run() {
    RuntimeProgram code;
    code.at_node.resize(static_cast<std::size_t>(analysis_.cfg.size()));

    emit_entry(code);
    assign_save_slots(code);

    for (const RemapVertex& v : analysis_.graph.vertices()) {
      switch (v.kind) {
        case VertexKind::CallCtx:
        case VertexKind::Entry:
          break;  // initialization handled by emit_entry
        case VertexKind::Remap:
        case VertexKind::CallPre:
        case VertexKind::CallPost:
        case VertexKind::Exit:
          emit_vertex(code, v);
          break;
      }
    }
    emit_exit_cleanup(code);
    code.plan_slots = static_cast<int>(plan_slot_ids_.size());
    code.copy_groups = next_group_;
    return code;
  }

 private:
  void emit_entry(RuntimeProgram& code) {
    for (const ArrayId a : program_.mapped_arrays()) {
      code.at_entry.push_back(make(OpKind::SetStatus, a, 0));
      if (program_.array(a).is_dummy) {
        Op live = make(OpKind::SetLive, a, 0);
        live.flag = true;
        code.at_entry.push_back(live);
      }
    }
  }

  /// Save slots for CallPost vertices with an ambiguous restore target.
  void assign_save_slots(RuntimeProgram& code) {
    for (const RemapVertex& v : analysis_.graph.vertices()) {
      if (v.kind != VertexKind::CallPost) continue;
      for (const auto& [a, label] : v.arrays) {
        if (label.removed || label.leaving.size() <= 1) continue;
        save_slot_[{v.id, a}] = code.save_slots++;
      }
    }
  }

  /// The CallPre vertex paired with a CallPost (chain pre -> call -> post).
  [[nodiscard]] int pre_node_of_post(const RemapVertex& post) const {
    return post.cfg_node - 2;
  }

  void emit_vertex(RuntimeProgram& code, const RemapVertex& v) {
    OpList& ops = code.at_node[static_cast<std::size_t>(v.cfg_node)];
    // One shared communication round per vertex: all the arrays this
    // vertex remaps exchange in a single fused superstep. The id is
    // allocated lazily by the first emitted Copy so copy-free vertices
    // claim no group.
    vertex_group_ = -1;

    // Figure 18: save the reaching status before the call for every
    // ambiguous restore performed at the matching CallPost.
    if (v.kind == VertexKind::CallPre) {
      const int post_node = v.cfg_node + 2;
      for (const RemapVertex& w : analysis_.graph.vertices()) {
        if (w.cfg_node != post_node || w.kind != VertexKind::CallPost)
          continue;
        for (const auto& [a, label] : w.arrays) {
          const auto it = save_slot_.find({w.id, a});
          if (it == save_slot_.end()) continue;
          Op save = make(OpKind::SaveStatus, a, -1);
          save.slot = it->second;
          ops.push_back(save);
        }
      }
    }

    for (const auto& [a, label] : v.arrays) {
      if (label.removed) {
        // Figure 19 runs the cleanup outside the "L != none" guard: a
        // removed remapping still frees copies no longer worth keeping.
        // The versions that may still flow through the vertex (its
        // recomputed reaching set — one of them is the runtime status)
        // must survive, or a later kept vertex would copy from freed
        // storage.
        emit_cleanup(ops, v, a, label, with_reaching(label));
        continue;
      }
      if (label.leaving.empty()) continue;  // exit cleanup-only labels
      if (label.leaving.size() == 1) {
        emit_remap(ops, v, a, label, label.leaving[0]);
        emit_cleanup(ops, v, a, label, label.maybe_live);
      } else {
        // Ambiguous restore: dispatch on the saved reaching status.
        HPFC_ASSERT(v.kind == VertexKind::CallPost);
        const int slot = save_slot_.at({v.id, a});
        for (const int candidate : label.leaving) {
          Op guard = make(OpKind::IfSavedEq, a, candidate);
          guard.slot = slot;
          OpList body;
          emit_remap(body, v, a, label, candidate);
          emit_cleanup(body, v, a, label, label.maybe_live);
          guard.body = std::move(body);
          ops.push_back(std::move(guard));
        }
      }
    }
  }

  void emit_remap(OpList& ops, const RemapVertex& v, ArrayId a,
                  const ArrayLabel& label, int leaving) {
    Op guard = make(OpKind::IfStatusNe, a, leaving);
    OpList body;
    body.push_back(make(OpKind::Allocate, a, leaving));

    Op not_live = make(OpKind::IfNotLive, a, leaving);
    OpList live_body;
    // value_needed covers may_read and adds the pass-through case: an
    // {N, D} branch-merged label whose N path feeds a later consumer.
    const bool needs_data =
        label.value_needed || !options_.skip_dead_transfers;
    if (needs_data) {
      for (const int src : label.reaching) {
        if (src == leaving) continue;
        Op dispatch = make(OpKind::IfStatusEq, a, src);
        Op copy = make(OpKind::Copy, a, leaving);
        copy.src_version = src;
        copy.region = label.live_region;
        copy.plan_slot = plan_slot(a, src, leaving, label.live_region);
        if (vertex_group_ < 0) vertex_group_ = next_group_++;
        copy.copy_group = vertex_group_;
        dispatch.body.push_back(std::move(copy));
        live_body.push_back(std::move(dispatch));
      }
    }
    Op set_live = make(OpKind::SetLive, a, leaving);
    set_live.flag = true;
    live_body.push_back(set_live);
    not_live.body = std::move(live_body);
    body.push_back(std::move(not_live));

    body.push_back(make(OpKind::SetStatus, a, leaving));
    guard.body = std::move(body);
    ops.push_back(std::move(guard));
    (void)v;
  }

  /// Keep-set for the cleanup at a removed label: the maybe-live copies
  /// plus everything still reaching through the vertex.
  static std::vector<int> with_reaching(const ArrayLabel& label) {
    std::vector<int> keep = label.maybe_live;
    for (const int ver : label.reaching)
      if (std::find(keep.begin(), keep.end(), ver) == keep.end())
        keep.push_back(ver);
    return keep;
  }

  void emit_cleanup(OpList& ops, const RemapVertex& v, ArrayId a,
                    const ArrayLabel& label, const std::vector<int>& maybe) {
    std::vector<int> keep;
    if (label.removed) {
      keep = maybe;  // already reaching-protected by the caller
    } else if (options_.use_maybe_live && !maybe.empty()) {
      keep = maybe;
    } else {
      keep = label.leaving;  // keep only the copies this vertex leaves
    }
    const bool dummy = program_.array(a).is_dummy;
    const int versions = analysis_.version_count(a);
    for (int ver = 0; ver < versions; ++ver) {
      if (std::find(keep.begin(), keep.end(), ver) != keep.end()) continue;
      Op guard = make(OpKind::IfLive, a, ver);
      // The caller owns the dummy argument's initial copy: its storage is
      // never released here, but its live flag must still drop so a later
      // remapping back to it does not reuse stale values.
      if (!(dummy && ver == 0))
        guard.body.push_back(make(OpKind::Free, a, ver));
      Op off = make(OpKind::SetLive, a, ver);
      off.flag = false;
      guard.body.push_back(off);
      ops.push_back(std::move(guard));
    }
    (void)v;
  }

  void emit_exit_cleanup(RuntimeProgram& code) {
    for (const ArrayId a : program_.mapped_arrays()) {
      const bool dummy = program_.array(a).is_dummy;
      const int versions = analysis_.version_count(a);
      for (int ver = 0; ver < versions; ++ver) {
        if (dummy && ver == 0) continue;  // the caller owns that copy
        Op guard = make(OpKind::IfLive, a, ver);
        guard.body.push_back(make(OpKind::Free, a, ver));
        Op off = make(OpKind::SetLive, a, ver);
        off.flag = false;
        guard.body.push_back(off);
        code.at_exit.push_back(std::move(guard));
      }
    }
  }

  /// Copies with identical (array, src, dst, region) redistribute through
  /// the same communication plan; they share one runtime cache slot.
  int plan_slot(ArrayId a, int src, int dst, const ir::Region& region) {
    const auto [it, inserted] = plan_slot_ids_.try_emplace(
        std::make_tuple(a, src, dst, region),
        static_cast<int>(plan_slot_ids_.size()));
    return it->second;
  }

  const ir::Program& program_;
  const remap::Analysis& analysis_;
  const CodegenOptions& options_;
  std::map<std::pair<int, ArrayId>, int> save_slot_;
  std::map<std::tuple<ArrayId, int, int, ir::Region>, int> plan_slot_ids_;
  int vertex_group_ = -1;
  int next_group_ = 0;
};

}  // namespace

RuntimeProgram generate(const ir::Program& program,
                        const remap::Analysis& analysis,
                        const CodegenOptions& options) {
  Generator gen(program, analysis, options);
  return gen.run();
}

}  // namespace hpfc::codegen
