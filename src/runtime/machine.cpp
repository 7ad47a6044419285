#include "runtime/machine.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>

#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "persist/snapshot.hpp"
#include "redist/commsets.hpp"
#include "redist/kernelgen.hpp"
#include "redist/plan_cache.hpp"
#include "redist/segments.hpp"
#include "runtime/expected.hpp"
#include "runtime/round.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::runtime {

namespace {

using ir::ArrayId;
using ir::CfgKind;
using mapping::ConcreteLayout;

/// One statically mapped version of one array: a local piece per rank.
struct VersionStorage {
  bool allocated = false;
  bool live = false;
  /// May have been written since the last snapshot: the snapshot writer
  /// re-hashes dirty versions' owned runs (and only those) to find the
  /// changed leaves. Conservative — a no-op write leaves clean leaves
  /// and costs a re-hash, never a journal record.
  bool dirty = false;
  std::vector<std::vector<double>> locals;  ///< per layout rank
  std::uint64_t bytes = 0;
};

/// The compiled ownership of one rank under one layout: the rank's owned
/// product set as a periodic program of bulk strided stretches over
/// (local position, global row-major linear) space, plus whether the rank
/// is a sending owner (under replication only coordinate-0 replicas send,
/// so elements are read/packed exactly once; the sending set is
/// full-or-empty per rank).
struct RankOwnership {
  mapping::OwnedProgram runs;
  bool sends = true;
};

/// Per-(array, version) ownership program, cached like plan slots: every
/// per-element runtime loop (checksums, write stamping, live-region
/// clears, copy verification) executes these precompiled stretches
/// instead of re-deriving ownership per element, looping over the
/// program's two levels (block repetitions, then body stretches). Its
/// size is O(rows): a CYCLIC(1) row is one stretch and a CYCLIC(k) row
/// one block (repetitions one window apart) over a one-window body,
/// however many windows the row spans. Unlike plan slots it is not
/// charged against memory_limit, so it is neither counted in peak_bytes
/// nor evicted.
struct OwnershipProgram {
  std::vector<RankOwnership> per_rank;  ///< indexed by layout rank
};

/// Per copy-site compiled transfers: one specialized kernel per transfer,
/// each owning its compiled SegmentProgram, built once per codegen plan
/// slot and borrowed by every fused round the slot's copy joins.
struct PlanSlot {
  bool compiled = false;
  /// Installed at compile time; the vector never reallocates afterwards,
  /// so FusedSlot may point into it.
  std::vector<redist::Kernel> kernels;
  /// The cached plan this slot compiled from and its (from, to) layout
  /// pair, the cache key. Instances are shared across slots; the machine
  /// charges a shared instance once and it survives until its last slot
  /// is evicted.
  const redist::PlanInstance* instance = nullptr;
  const ConcreteLayout* from = nullptr;
  const ConcreteLayout* to = nullptr;
  /// Heap footprint of the kernels (segment tables + spans), charged
  /// against the memory limit (plan slots are evictable like array copies). The
  /// shared instance's bytes are accounted separately (refcounted).
  std::uint64_t plan_bytes = 0;
};

/// One Copy op recorded while its vertex's guard code runs: the data
/// movement is deferred so every copy the vertex fires can share a single
/// fused exchange superstep. (array, versions) are fixed by the plan slot,
/// but are kept for direct storage addressing at flush time.
struct PendingCopy {
  ArrayId array = -1;
  int src = -1;
  int dst = -1;
  int plan_slot = -1;
};

/// One cached fused communication round (per distinct fired-member set):
/// the members' destination storage and the compiled round over their
/// plan slots' kernels (framing, traffic table and counters, built once),
/// so steady-state remapping loops re-run with no per-copy allocation.
struct FusedSlot {
  /// Each member's destination version storage, in member order.
  /// VersionStorage objects are allocated once at machine construction,
  /// so the pointers are stable for the whole run.
  std::vector<VersionStorage*> destinations;
  /// Borrows the member plan slots' kernels: cached fused slots are
  /// invalidated whenever a member plan slot is evicted, so these never
  /// dangle.
  std::optional<FusedRound> round;
};

class Machine {
 public:
  Machine(const ir::Program& program, const remap::Analysis& analysis,
          const codegen::RuntimeProgram& code, const RunOptions& options)
      : program_(program),
        analysis_(analysis),
        code_(code),
        options_(options),
        rng_(options.seed),
        backend_(exec::make_backend(
            options.backend, machine_ranks(program, options), options.threads,
            exec::ProcConfig{options.proc_timeout_ms})) {
    const std::size_t num_arrays = program_.arrays.size();
    status_.assign(num_arrays, 0);
    storage_.resize(num_arrays);
    ownership_.resize(num_arrays);
    expected_.reserve(num_arrays);
    for (std::size_t a = 0; a < num_arrays; ++a) {
      expected_.emplace_back(program_.arrays[a].shape);
      if (!program_.arrays[a].has_mapping) continue;
      require_stepped_weights(program_.arrays[a].shape);
      const auto versions = static_cast<std::size_t>(
          analysis_.version_count(static_cast<ArrayId>(a)));
      storage_[a].resize(versions);
      ownership_[a].resize(versions);
    }
    saved_.assign(static_cast<std::size_t>(code_.save_slots), -1);
    plan_slots_.resize(static_cast<std::size_t>(code_.plan_slots));
    partials_.assign(static_cast<std::size_t>(backend_->ranks()), 0);
    if (!options_.snapshot_dir.empty())
      snapshot_writer_ =
          std::make_unique<persist::SnapshotWriter>(options_.snapshot_dir);
    // Dummy arguments arrive allocated by the caller with the imported
    // values: zeros initially, matching their dead expected values.
    for (const ArrayId a : program_.mapped_arrays())
      if (program_.array(a).is_dummy) allocate(a, 0);
  }

  RunReport run() {
    const auto start = std::chrono::steady_clock::now();
    run_program();
    if (snapshot_writer_ != nullptr) {
      const persist::SnapshotStats& snap = snapshot_writer_->stats();
      report_.snapshot_bytes = snap.bytes;
      report_.snapshot_runs_written = snap.runs_written;
      report_.snapshot_ms = snap.ms;
    }
    report_.ranks = backend_->ranks();
    report_.backend = backend_->name();
    report_.threads = backend_->workers();
    report_.wire_bytes = backend_->wire().wire_bytes;
    report_.wire_msgs = backend_->wire().wire_msgs;
    report_.proc_spawns = backend_->wire().proc_spawns;
    report_.exec_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return report_;
  }

 private:
  void run_program() {
    for (const auto& op : code_.at_entry) execute(op);

    int node = analysis_.cfg.entry();
    std::map<int, mapping::Extent> loop_trips;
    while (true) {
      const ir::CfgNode& n = analysis_.cfg.node(node);
      if (n.kind != CfgKind::CallPost) run_guard_code(node);

      bool done = false;
      int next = n.succs.empty() ? -1 : n.succs[0];
      switch (n.kind) {
        case CfgKind::Exit: {
          check_exported();
          // Seal the final store before the exit cleanup frees it, so
          // the last sealed epoch always captures the program's result.
          take_snapshot();
          for (const auto& op : code_.at_exit) execute(op);
          done = true;
          break;
        }
        case CfgKind::Plain:
          if (n.stmt != nullptr) {
            if (const auto* ref = std::get_if<ir::RefStmt>(&n.stmt->node))
              execute_ref(node, *ref);
            else if (const auto* live =
                         std::get_if<ir::LiveRegionStmt>(&n.stmt->node))
              execute_live_region(*live);
            else if (const auto* kill =
                         std::get_if<ir::KillStmt>(&n.stmt->node))
              execute_kill(*kill);
          }
          break;
        case CfgKind::Branch: {
          const auto& ifs = std::get<ir::IfStmt>(n.stmt->node);
          for (const ArrayId a : ifs.cond_reads) touch_read(node, a);
          const bool take_then = (rng_() & 1u) != 0;
          next = take_then ? n.succs[0] : n.succs[1];
          break;
        }
        case CfgKind::LoopHead: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          if (loop.may_zero_trip) {
            auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
            if (it->second > 0) {
              --it->second;
              next = n.succs[0];  // enter the body
            } else {
              loop_trips.erase(it);
              next = n.succs.size() > 1 ? n.succs[1] : n.succs[0];
            }
          } else {
            next = n.succs[0];
          }
          break;
        }
        case CfgKind::LoopLatch: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
          if (inserted) --it->second;  // the first trip just completed
          if (it->second > 0) {
            --it->second;
            next = n.succs[0];  // back edge
          } else {
            loop_trips.erase(it);
            next = n.succs[1];
          }
          break;
        }
        case CfgKind::Call: {
          const auto& call = std::get<ir::CallStmt>(n.stmt->node);
          const auto& itf = program_.interface(call.interface_id);
          for (std::size_t i = 0; i < call.args.size(); ++i) {
            const ArrayId a = call.args[i];
            if (!program_.array(a).has_mapping) continue;
            switch (itf.dummies[i].intent) {
              case ir::Intent::In:
                touch_read(node, a);
                break;
              case ir::Intent::Out:
                touch_write(node, a);
                break;
              case ir::Intent::InOut:
                touch_read(node, a);
                touch_write(node, a);
                break;
            }
          }
          break;
        }
        default:
          break;
      }
      if (n.kind == CfgKind::CallPost) run_guard_code(node);
      if (done) break;
      HPFC_ASSERT_MSG(next >= 0, "control fell off the CFG");
      node = next;
      if (options_.paranoid) check_liveness_invariant();
    }
  }

  /// Runs a node's guard code, then its vertex's fused communication
  /// round, so the node semantics read only moved data. The store is then
  /// quiescent: a crash-consistent snapshot boundary.
  void run_guard_code(int node) {
    const auto& ops = code_.at_node[static_cast<std::size_t>(node)];
    for (const auto& op : ops) execute(op);
    flush_pending();
    if (!ops.empty()) maybe_snapshot();
  }

  const ConcreteLayout& layout(ArrayId a, int version) const {
    return analysis_.versions[static_cast<std::size_t>(a)].layout(version);
  }

  // ---- storage management ------------------------------------------------

  void allocate(ArrayId a, int version) {
    auto& vs = storage_[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(version)];
    if (vs.allocated) return;
    const ConcreteLayout& lay = layout(a, version);
    vs.locals.resize(static_cast<std::size_t>(lay.ranks()));
    vs.bytes = 0;
    std::vector<mapping::Extent> counts(static_cast<std::size_t>(lay.ranks()));
    for (int r = 0; r < lay.ranks(); ++r) {
      const mapping::Extent count = lay.local_count(r);
      counts[static_cast<std::size_t>(r)] = count;
      vs.bytes += static_cast<std::uint64_t>(count) * sizeof(double);
    }
    // Each rank zero-fills its own local piece in its execution context.
    backend_->step([&](int r) {
      if (r >= lay.ranks()) return;
      vs.locals[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]), 0.0);
    });
    vs.allocated = true;
    vs.dirty = true;
    ++report_.allocations;
    bytes_in_use_ += vs.bytes;
    if (options_.memory_limit != 0 && bytes_in_use_ > options_.memory_limit)
      evict_until_fits(a, version);
    report_.peak_bytes = std::max(report_.peak_bytes, bytes_in_use_);
  }

  void deallocate(ArrayId a, int version) {
    auto& vs = storage_[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(version)];
    if (!vs.allocated) return;
    bytes_in_use_ -= vs.bytes;
    vs.locals.clear();
    vs.allocated = false;
    vs.live = false;
    ++report_.frees;
  }

  /// §5.2: under memory pressure the runtime frees live non-current copies
  /// and clears their liveness; they are regenerated with communication if
  /// needed again. Largest victims go first: every eviction is a future
  /// regeneration copy, so freeing one big copy beats squeezing out many
  /// small ones.
  void evict_until_fits(ArrayId keep_array, int keep_version) {
    std::vector<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>>
        victims;
    for (std::size_t a = 0; a < storage_.size(); ++a) {
      for (std::size_t v = 0; v < storage_[a].size(); ++v) {
        const auto& vs = storage_[a][v];
        if (!vs.allocated) continue;
        const bool is_current = static_cast<int>(v) == status_[a];
        const bool is_keep = static_cast<int>(a) == keep_array &&
                             static_cast<int>(v) == keep_version;
        const bool is_dummy_origin = program_.arrays[a].is_dummy && v == 0;
        if (is_current || is_keep || is_dummy_origin) continue;
        // Versions referenced by a pending fused round are pinned: their
        // data has not moved yet (a deferred source may no longer be the
        // current status once its vertex's SetStatus has run).
        if (pinned(static_cast<ArrayId>(a), static_cast<int>(v))) continue;
        victims.push_back({vs.bytes, {a, v}});
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;  // deterministic tie-break
              });
    for (const auto& [bytes, id] : victims) {
      if (bytes_in_use_ <= options_.memory_limit) break;
      deallocate(static_cast<ArrayId>(id.first), static_cast<int>(id.second));
      ++report_.evictions;
    }
    // Storage eviction alone may not reach the budget (everything left is
    // current, pinned, or a dummy origin): fall back to dropping compiled
    // plan slots, which recompile — and re-specialize — lazily on their
    // next Copy.
    if (bytes_in_use_ > options_.memory_limit) evict_plan_slots(-1);
  }

  [[nodiscard]] bool pinned(ArrayId a, int v) const {
    for (const PendingCopy& m : pending_)
      if (m.array == a && (m.src == v || m.dst == v)) return true;
    return false;
  }

  /// Second-phase eviction (the plan-cache analogue of §5.2): drops
  /// compiled plan slots — their kernels and segment tables — largest
  /// first until the budget fits. An evicted slot is
  /// recompiled on its next use, so specialized_kernels rises while every
  /// data-volume counter stays put.
  void evict_plan_slots(int keep_slot) {
    std::vector<std::pair<std::uint64_t, std::size_t>> victims;
    for (std::size_t s = 0; s < plan_slots_.size(); ++s) {
      const PlanSlot& slot = plan_slots_[s];
      if (!slot.compiled || slot.plan_bytes == 0) continue;
      if (static_cast<int>(s) == keep_slot) continue;
      if (plan_pinned(static_cast<int>(s))) continue;
      victims.push_back({slot.plan_bytes, s});
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;  // deterministic tie-break
              });
    for (const auto& [bytes, s] : victims) {
      if (bytes_in_use_ <= options_.memory_limit) break;
      drop_plan_slot(s);
    }
  }

  /// A plan slot referenced by the open fused round must survive until its
  /// flush: pending_ members' kernels are already borrowed by the round
  /// being assembled.
  [[nodiscard]] bool plan_pinned(int slot) const {
    for (const PendingCopy& m : pending_)
      if (m.plan_slot == slot) return true;
    return false;
  }

  void drop_plan_slot(std::size_t s) {
    bytes_in_use_ -= plan_slots_[s].plan_bytes;
    // The slot's reference on its shared plan instance goes with it; the
    // instance itself is only un-charged when the last slot using it is
    // dropped (release_instance refcounts).
    release_instance(plan_slots_[s]);
    plan_slots_[s] = PlanSlot{};
    // Cached fused rounds borrow pointers to their member plan slots'
    // kernels; invalidate every round that references this slot so the
    // pointers can never dangle.
    std::erase_if(fused_slots_, [&](const auto& kv) {
      return std::find(kv.first.begin(), kv.first.end(),
                       static_cast<int>(s)) != kv.first.end();
    });
    ++report_.plan_evictions;
  }

  /// Heap footprint of a compiled slot: its kernels' segment tables and
  /// span lists.
  static std::uint64_t plan_slot_bytes(const PlanSlot& slot) {
    std::uint64_t bytes = 0;
    for (const auto& kernel : slot.kernels) bytes += kernel.footprint_bytes();
    return bytes;
  }

  // ---- generated code execution -----------------------------------------

  void execute(const codegen::Op& op) {
    using codegen::OpKind;
    auto& versions = storage_[static_cast<std::size_t>(op.array)];
    switch (op.kind) {
      case OpKind::IfStatusNe:
        if (status_[static_cast<std::size_t>(op.array)] != op.version) {
          for (const auto& child : op.body) execute(child);
        } else {
          ++report_.skipped_already_mapped;
        }
        break;
      case OpKind::IfStatusEq:
        if (status_[static_cast<std::size_t>(op.array)] == op.version)
          for (const auto& child : op.body) execute(child);
        break;
      case OpKind::IfNotLive:
        if (!versions[static_cast<std::size_t>(op.version)].live) {
          for (const auto& child : op.body) execute(child);
        } else {
          ++report_.skipped_live_copy;
        }
        break;
      case OpKind::IfLive:
        if (versions[static_cast<std::size_t>(op.version)].live)
          for (const auto& child : op.body) execute(child);
        break;
      case OpKind::Allocate:
        allocate(op.array, op.version);
        break;
      case OpKind::Copy:
        defer_copy(op);
        break;
      case OpKind::SetLive:
        versions[static_cast<std::size_t>(op.version)].live = op.flag;
        break;
      case OpKind::SetStatus:
        status_[static_cast<std::size_t>(op.array)] = op.version;
        break;
      case OpKind::Free:
        // While a fused round is pending, frees hold until after the
        // flush (a member's source may be scheduled for cleanup by the
        // very ops that follow its Copy); order is preserved.
        if (pending_group_ >= 0)
          deferred_frees_.push_back({op.array, op.version});
        else
          deallocate(op.array, op.version);
        break;
      case OpKind::SaveStatus:
        saved_[static_cast<std::size_t>(op.slot)] =
            status_[static_cast<std::size_t>(op.array)];
        break;
      case OpKind::IfSavedEq:
        if (saved_[static_cast<std::size_t>(op.slot)] == op.version)
          for (const auto& child : op.body) execute(child);
        break;
    }
  }

  /// §4.3 live-region semantics: elements outside the region are dead and
  /// read as zero from here on — in the expected values (an O(dims) box
  /// intersection) and in every live copy (a purely local operation).
  void execute_live_region(const ir::LiveRegionStmt& live) {
    if (!program_.array(live.array).has_mapping) return;
    const auto& shape = program_.array(live.array).shape;
    if (shape.rank() == 0) return;  // a scalar has no region to clip
    expected_[static_cast<std::size_t>(live.array)].live(live.region);
    auto& versions = storage_[static_cast<std::size_t>(live.array)];
    for (std::size_t v = 0; v < versions.size(); ++v) {
      auto& vs = versions[v];
      if (!vs.allocated) continue;
      const ConcreteLayout& lay = layout(live.array, static_cast<int>(v));
      const OwnershipProgram& own = ownership(live.array, static_cast<int>(v));
      backend_->step([&](int r) {
        if (r >= lay.ranks()) return;
        auto& local = vs.locals[static_cast<std::size_t>(r)];
        own.per_rank[static_cast<std::size_t>(r)].runs.for_each_stretch(
            [&](const mapping::OwnedRun& run) {
              double* vals = local.data() + run.local_base;
              const auto [j_lo, j_hi] =
                  clip_stretch(shape, live.region, run);
              std::fill_n(vals, j_lo, 0.0);
              if (j_hi < run.len)
                std::fill_n(vals + j_hi, run.len - j_hi, 0.0);
            });
      });
      vs.dirty = true;
    }
  }

  /// §4.3 kill semantics: the whole array is dead and reads as zero from
  /// here on — the full-array case of execute_live_region. The dead value
  /// must be deterministic: O0 still moves killed data at the next remap
  /// while O1/O2 skip the transfer (fresh allocations are zero-filled), so
  /// a program that reads an array after killing it only stays
  /// oracle-identical across levels if every dead element reads as zero.
  void execute_kill(const ir::KillStmt& kill) {
    if (!program_.array(kill.array).has_mapping) return;
    expected_[static_cast<std::size_t>(kill.array)].kill();
    auto& versions = storage_[static_cast<std::size_t>(kill.array)];
    for (auto& vs : versions) {
      if (!vs.allocated) continue;
      backend_->step([&](int r) {
        if (r >= static_cast<int>(vs.locals.size())) return;
        auto& local = vs.locals[static_cast<std::size_t>(r)];
        std::fill(local.begin(), local.end(), 0.0);
      });
      vs.dirty = true;
    }
  }

  PlanSlot& transfer_plan(ArrayId a, int src, int dst,
                          const ir::Region& region, int plan_slot) {
    HPFC_ASSERT_MSG(plan_slot >= 0 &&
                        plan_slot < static_cast<int>(plan_slots_.size()),
                    "Copy op without an assigned plan slot");
    PlanSlot& slot = plan_slots_[static_cast<std::size_t>(plan_slot)];
    if (slot.compiled) return slot;

    const ConcreteLayout& from = layout(a, src);
    const ConcreteLayout& to = layout(a, dst);
    acquire_instance(slot, from, to);
    const redist::RedistPlanV2& plan = slot.instance->plan;
    slot.kernels.reserve(plan.transfers.size());
    // Owned run sets are shared across a rank's transfers: one per
    // endpoint rank, never per element.
    std::map<int, std::vector<mapping::IndexRuns>> src_owned;
    std::map<int, std::vector<mapping::IndexRuns>> dst_owned;
    for (const auto& transfer : plan.transfers) {
      // Cached instances are shared across plan slots, so live-region
      // refinement restricts a copy rather than the cached transfer.
      redist::TransferV2 restricted;
      const redist::TransferV2* t = &transfer;
      if (!region.empty()) {
        restricted = transfer;
        if (!restricted.restrict_to(region)) continue;
        t = &restricted;
      }
      const auto sit =
          src_owned.try_emplace(t->src, from.owned_index_runs(t->src)).first;
      const auto dit =
          dst_owned.try_emplace(t->dst, to.owned_index_runs(t->dst)).first;
      // Each compiled program moves into the kernel specialized from it.
      // Installed once per compile; an evicted slot re-installs on
      // recompilation, so specialized_kernels counts both.
      slot.kernels.push_back(redist::specialize(
          redist::compile_transfer(*t, sit->second, dit->second)));
    }
    report_.net.specialized_kernels += slot.kernels.size();
    slot.compiled = true;
    // The compiled tables are memory like any copy: charge them against
    // the budget and fall back to evicting *other* plan slots when the
    // arrays alone no longer leave room.
    slot.plan_bytes = plan_slot_bytes(slot);
    bytes_in_use_ += slot.plan_bytes;
    if (options_.memory_limit != 0 && bytes_in_use_ > options_.memory_limit)
      evict_plan_slots(plan_slot);
    report_.peak_bytes = std::max(report_.peak_bytes, bytes_in_use_);
    return slot;
  }

  /// Plan-cache lookup for a compiling plan slot, keyed by its (from, to)
  /// layout pair. One hit-or-miss is accounted per call — the producing
  /// site — so the counters are backend-invariant. The instance's run
  /// sets are charged against the memory limit once however many slots
  /// share them: on the miss that builds it, until the release that
  /// drops it.
  void acquire_instance(PlanSlot& slot, const ConcreteLayout& from,
                        const ConcreteLayout& to) {
    const auto [instance, hit] = plans_.acquire(from, to);
    report_.net.plan_cache_hits += hit ? 1 : 0;
    report_.net.plan_cache_misses += hit ? 0 : 1;
    report_.net.symbolic_instantiations += hit ? 0 : 1;
    if (!hit) bytes_in_use_ += instance->bytes;
    slot.instance = instance;
    slot.from = &from;
    slot.to = &to;
  }

  /// Releases one plan slot's reference on its shared instance. The last
  /// release un-charges the instance and drops it from the cache so its
  /// memory is actually reclaimable; a later compile of the same pair
  /// rebuilds it (and re-counts a miss). Slots evicted while other
  /// referencing slots live leave the instance cached — their recompile
  /// is a cache hit.
  void release_instance(const PlanSlot& slot) {
    if (slot.instance == nullptr) return;
    const std::uint64_t bytes = slot.instance->bytes;
    if (plans_.release(*slot.from, *slot.to)) bytes_in_use_ -= bytes;
  }

  // ---- fused copy groups -------------------------------------------------

  /// Records a group-member Copy while its vertex's guard code runs: the
  /// endpoint storage is allocated (and pinned against eviction) and the
  /// transfer program compiled, but the data movement is deferred so all
  /// the copies the vertex fires share one exchange superstep.
  void defer_copy(const codegen::Op& op) {
    HPFC_ASSERT_MSG(op.copy_group >= 0, "Copy op without a copy group");
    // Defensive: groups never interleave (one vertex per CFG node), but a
    // group change mid-list must still flush the previous round first.
    if (pending_group_ >= 0 && pending_group_ != op.copy_group)
      flush_pending();
    pending_group_ = op.copy_group;
    pending_.push_back({op.array, op.src_version, op.version, op.plan_slot});
    allocate(op.array, op.src_version);
    allocate(op.array, op.version);
    (void)transfer_plan(op.array, op.src_version, op.version, op.region,
                        op.plan_slot);
  }

  /// Runs the pending vertex's fused communication round, then the frees
  /// held while the round was open.
  void flush_pending() {
    if (pending_group_ < 0) return;
    if (!pending_.empty()) run_fused();
    pending_.clear();
    pending_group_ = -1;
    for (const auto& [a, v] : deferred_frees_) deallocate(a, v);
    deferred_frees_.clear();
  }

  /// The cached fused round for the pending member set. Guards decide at
  /// runtime which copies fire, so a group may flush with different member
  /// subsets on different visits; each distinct plan-slot sequence gets
  /// its own round (steady-state loops always hit the cache).
  FusedSlot& fused_slot() {
    key_scratch_.clear();
    for (const PendingCopy& m : pending_) key_scratch_.push_back(m.plan_slot);
    const auto [it, inserted] = fused_slots_.try_emplace(key_scratch_);
    FusedSlot& slot = it->second;
    if (!inserted) return slot;
    slot.destinations.reserve(pending_.size());
    std::vector<RoundMember> members;
    members.reserve(pending_.size());
    for (const PendingCopy& m : pending_) {
      auto& versions = storage_[static_cast<std::size_t>(m.array)];
      VersionStorage& from = versions[static_cast<std::size_t>(m.src)];
      VersionStorage& to = versions[static_cast<std::size_t>(m.dst)];
      slot.destinations.push_back(&to);
      members.push_back(
          {plan_slots_[static_cast<std::size_t>(m.plan_slot)].kernels,
           &from.locals, &to.locals});
    }
    slot.round.emplace(backend_->ranks(), std::move(members), pending_group_);
    return slot;
  }

  /// The remapping communication of one vertex: every transfer the vertex
  /// fires moves in one round through its specialized kernel
  /// (runtime/round.hpp), charged as ONE superstep from the round's
  /// traffic table — the only place NetStats are charged. src == dst
  /// transfers run as direct strided local copies, charged by their
  /// src == dst flows as local copies. The report's counters come from the
  /// round's totals, counted once when fused_slot() built it.
  void run_fused() {
    FusedSlot& slot = fused_slot();
    FusedRound& round = *slot.round;
    const RoundTimes times = round.run(*backend_);
    net::account_flows(report_.net, options_.cost, backend_->ranks(),
                       round.traffic());
    report_.net.specialized_dispatches += round.dispatches();
    report_.pack_ms += times.pack_ms;
    report_.exchange_ms += times.exchange_ms;
    report_.unpack_ms += times.unpack_ms;
    report_.local_fastpath_copies += round.local_copies();
    report_.elements_copied +=
        round.local_elements() + round.remote_elements();
    report_.packed_bytes += round.remote_elements() * sizeof(double);

    for (VersionStorage* to : slot.destinations) to->dirty = true;
    const std::size_t members = slot.destinations.size();
    report_.copies_performed += static_cast<int>(members);
    if (members >= 2) report_.net.fused_copies += members;
  }

  // ---- crash-consistent snapshots ---------------------------------------

  /// Counts one remap boundary and snapshots on the configured cadence.
  void maybe_snapshot() {
    if (snapshot_writer_ == nullptr) return;
    ++boundary_counter_;
    if (boundary_counter_ % std::max(1, options_.snapshot_every) != 0) return;
    take_snapshot();
  }

  /// Appends one delta epoch for the current store and seals it. The
  /// view borrows the live storage: every (array, version) slot with its
  /// flags, dirty hint, per-rank locals, and owned-run geometry.
  void take_snapshot() {
    if (snapshot_writer_ == nullptr) return;
    persist::StoreView view;
    view.status = &status_;
    view.saved = &saved_;
    view.write_counter = write_counter_;
    for (const ArrayId a : program_.mapped_arrays()) {
      auto& versions = storage_[static_cast<std::size_t>(a)];
      for (std::size_t v = 0; v < versions.size(); ++v) {
        VersionStorage& vs = versions[v];
        persist::VersionView vv;
        vv.array = a;
        vv.version = static_cast<int>(v);
        vv.allocated = vs.allocated;
        vv.live = vs.live;
        vv.dirty = vs.dirty;
        if (vs.allocated) {
          vv.locals = &vs.locals;
          const OwnershipProgram& own = ownership(a, static_cast<int>(v));
          vv.runs.reserve(own.per_rank.size());
          for (const RankOwnership& ro : own.per_rank)
            vv.runs.push_back(&ro.runs);
        }
        view.versions.push_back(std::move(vv));
        vs.dirty = false;
      }
    }
    snapshot_writer_->snapshot(view);
  }

  /// Lazily compiles and caches the ownership program of (array, version):
  /// the bulk-strided form of every rank's owned set plus its sending
  /// role, shared by all per-element runtime loops over that version.
  const OwnershipProgram& ownership(ArrayId a, int version) const {
    auto& cached = ownership_[static_cast<std::size_t>(a)]
                             [static_cast<std::size_t>(version)];
    if (cached) return *cached;
    const ConcreteLayout& lay = layout(a, version);
    OwnershipProgram prog;
    prog.per_rank.resize(static_cast<std::size_t>(lay.ranks()));
    for (int r = 0; r < lay.ranks(); ++r) {
      RankOwnership& ro = prog.per_rank[static_cast<std::size_t>(r)];
      ro.runs = lay.owned_program(r);
      if (lay.array_shape().rank() > 0) {
        // The sending set is full-or-empty per rank: for_sending only
        // excludes ranks sitting on a non-zero replicated coordinate.
        const auto send = lay.owned_index_runs(r, /*for_sending=*/true);
        bool excluded = send.empty();
        for (const auto& s : send) excluded = excluded || s.empty();
        ro.sends = !excluded;
      }
    }
    cached.emplace(std::move(prog));
    return *cached;
  }

  // ---- reference semantics -------------------------------------------

  void execute_ref(int node, const ir::RefStmt& ref) {
    for (const ArrayId a : ref.reads) touch_read(node, a);
    for (const ArrayId a : ref.writes) touch_write(node, a);
    for (const ArrayId a : ref.defines) touch_write(node, a);
  }

  int ref_version(int node, ArrayId a) const {
    const auto& map = analysis_.ref_versions[static_cast<std::size_t>(node)];
    const auto it = map.find(a);
    HPFC_ASSERT_MSG(it != map.end(), "reference without a resolved version");
    return it->second;
  }

  void touch_read(int node, ArrayId a) {
    if (!program_.array(a).has_mapping) return;
    ++report_.reads;
    const int version = ref_version(node, a);
    HPFC_ASSERT_MSG(status_[static_cast<std::size_t>(a)] == version,
                    "runtime status disagrees with the static version");
    allocate(a, version);
    auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    vs.live = true;
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    // Each rank folds its owned elements into a private partial; the
    // wrapping uint64 sum is order-independent, so reducing the partials
    // afterwards reproduces the sequential signature exactly.
    std::fill(partials_.begin(), partials_.end(), 0);
    backend_->step([&](int r) {
      if (r >= lay.ranks()) return;
      const RankOwnership& ro = own.per_rank[static_cast<std::size_t>(r)];
      if (!ro.sends) return;  // primary owners only: replicas count once
      partials_[static_cast<std::size_t>(r)] =
          fold(ro.runs, vs.locals[static_cast<std::size_t>(r)].data());
    });
    for (const std::uint64_t partial : partials_) report_.signature += partial;
  }

  void touch_write(int node, ArrayId a) {
    if (!program_.array(a).has_mapping) return;
    ++report_.writes;
    const std::uint64_t counter = ++write_counter_;
    expected_[static_cast<std::size_t>(a)].write(counter,
                                                 program_.array(a).shape);
    const int version = ref_version(node, a);
    HPFC_ASSERT_MSG(status_[static_cast<std::size_t>(a)] == version,
                    "runtime status disagrees with the static version");
    allocate(a, version);
    auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    vs.live = true;
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    // One superstep: each rank stamps its own local piece.
    backend_->step([&](int r) {
      if (r >= lay.ranks()) return;
      stamp(own.per_rank[static_cast<std::size_t>(r)].runs,
            vs.locals[static_cast<std::size_t>(r)].data(), counter);
    });
    vs.dirty = true;
  }

  // ---- validation -------------------------------------------------------

  /// Every live copy other than the current one must hold the expected
  /// values (the liveness invariant the optimizations rely on).
  void check_liveness_invariant() const {
    for (std::size_t a = 0; a < storage_.size(); ++a) {
      for (std::size_t v = 0; v < storage_[a].size(); ++v) {
        const auto& vs = storage_[a][v];
        if (!vs.live || !vs.allocated) continue;
        if (static_cast<int>(v) == status_[a]) continue;
        HPFC_ASSERT_MSG(
            matches_expected(static_cast<ArrayId>(a), static_cast<int>(v)),
            "live copy " + program_.arrays[a].name + "_" + std::to_string(v) +
                " diverged from the expected values");
      }
    }
  }

  /// Whether every rank's owned elements of (a, version) hold the
  /// expected values: each stretch's stamped members, clipped in closed
  /// form from the array's descriptor, and zeros around them.
  [[nodiscard]] bool matches_expected(ArrayId a, int version) const {
    const auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    const ExpectedValues& expected = expected_[static_cast<std::size_t>(a)];
    const mapping::Shape& shape = program_.array(a).shape;
    for (int r = 0; r < lay.ranks(); ++r)
      if (!matches(own.per_rank[static_cast<std::size_t>(r)].runs,
                   vs.locals[static_cast<std::size_t>(r)].data(), shape,
                   expected))
        return false;
    return true;
  }

  /// Exported dummy arguments must hold the expected values at exit.
  void check_exported() {
    for (const ArrayId a : program_.mapped_arrays()) {
      const auto& decl = program_.array(a);
      if (!decl.is_dummy || decl.intent == ir::Intent::In) continue;
      if (!storage_[static_cast<std::size_t>(a)][0].allocated ||
          !matches_expected(a, 0))
        report_.exported_values_ok = false;
    }
  }

  const ir::Program& program_;
  const remap::Analysis& analysis_;
  const codegen::RuntimeProgram& code_;
  RunOptions options_;
  std::mt19937 rng_;
  std::unique_ptr<exec::Backend> backend_;
  RunReport report_;

  std::vector<int> status_;
  std::vector<std::vector<VersionStorage>> storage_;
  /// Cached ownership programs per (array, version); lazily built, mutable
  /// because the const validation paths share the cache.
  mutable std::vector<std::vector<std::optional<OwnershipProgram>>> ownership_;
  /// Per-array closed-form expected values (indexed by ArrayId; only
  /// mapped arrays' descriptors are ever updated).
  std::vector<ExpectedValues> expected_;
  std::vector<int> saved_;
  std::uint64_t write_counter_ = 0;
  std::uint64_t bytes_in_use_ = 0;
  /// Compiled transfer kernels per static copy site (codegen plan slot).
  std::vector<PlanSlot> plan_slots_;
  /// Plans shared by the plan slots, one per (from, to) layout pair.
  redist::PlanCache plans_;
  /// Copy-group deferral state: the open round's id and members, the
  /// frees held until its flush, and the cached fused rounds keyed by
  /// fired plan-slot sequence (key_scratch_ avoids a per-flush rebuild
  /// allocation on cache hits).
  int pending_group_ = -1;
  std::vector<PendingCopy> pending_;
  std::vector<std::pair<ArrayId, int>> deferred_frees_;
  std::map<std::vector<int>, FusedSlot> fused_slots_;
  std::vector<int> key_scratch_;
  /// Pre-sized per-rank scratch (one slot per rank, reset per use) so the
  /// hot supersteps allocate nothing.
  std::vector<std::uint64_t> partials_;
  /// Crash-consistent snapshotting (nullptr unless
  /// RunOptions::snapshot_dir is set on a parallel run).
  std::unique_ptr<persist::SnapshotWriter> snapshot_writer_;
  int boundary_counter_ = 0;
};

}  // namespace

int machine_ranks(const ir::Program& program, const RunOptions& options) {
  if (options.ranks > 0) return options.ranks;
  mapping::Extent max_ranks = 1;
  for (const auto& p : program.procs)
    max_ranks = std::max(max_ranks, p.shape.total());
  return static_cast<int>(max_ranks);
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << copies_performed << " copies (" << elements_copied << " elems), "
     << skipped_already_mapped << " already-mapped, " << skipped_live_copy
     << " live-reuse, " << local_fastpath_copies << " local-fastpath, "
     << packed_bytes << " packed bytes, " << net.summary();
  if (!backend.empty())
    os << " [" << backend << " x" << threads << ", " << exec_ms
       << " ms wall (pack " << pack_ms << " / exchange " << exchange_ms
       << " / unpack " << unpack_ms << ")]";
  return os.str();
}

void write_json_fields(std::ostream& os, const RunReport& report) {
  const net::NetStats& net = report.net;
  os << "\"copies_performed\": " << report.copies_performed
     << ", \"elements_copied\": " << report.elements_copied
     << ", \"remote_messages\": " << net.messages
     << ", \"remote_bytes\": " << net.bytes
     << ", \"local_copies\": " << net.local_copies
     << ", \"pack_segments\": " << net.segments
     << ", \"packed_bytes\": " << report.packed_bytes
     << ", \"local_fastpath_copies\": " << report.local_fastpath_copies
     << ", \"supersteps\": " << net.supersteps
     << ", \"fused_copies\": " << net.fused_copies
     << ", \"specialized_kernels\": " << net.specialized_kernels
     << ", \"specialized_dispatches\": " << net.specialized_dispatches
     << ", \"plan_cache_hits\": " << net.plan_cache_hits
     << ", \"plan_cache_misses\": " << net.plan_cache_misses
     << ", \"symbolic_instantiations\": " << net.symbolic_instantiations
     << ", \"plan_evictions\": " << report.plan_evictions
     << ", \"skipped_status_guard\": " << report.skipped_already_mapped
     << ", \"skipped_live_copy\": " << report.skipped_live_copy
     << ", \"wire_bytes\": " << report.wire_bytes
     << ", \"wire_msgs\": " << report.wire_msgs
     << ", \"proc_spawns\": " << report.proc_spawns
     << ", \"snapshot_bytes\": " << report.snapshot_bytes
     << ", \"snapshot_runs_written\": " << report.snapshot_runs_written
     << ", \"snapshot_ms\": " << report.snapshot_ms
     << ", \"restore_ms\": " << report.restore_ms
     << ", \"sim_time_ms\": " << net.sim_time * 1e3
     << ", \"exec_ms\": " << report.exec_ms
     << ", \"pack_ms\": " << report.pack_ms
     << ", \"exchange_ms\": " << report.exchange_ms
     << ", \"unpack_ms\": " << report.unpack_ms;
}

void write_json_calibration(std::ostream& os,
                            const exec::Calibration& calibration) {
  os << "\"calibration\": {\"latency_s\": " << calibration.latency
     << ", \"inv_bandwidth_s_per_byte\": " << calibration.inv_bandwidth
     << ", \"samples\": " << calibration.samples << "}";
}

RunReport run_parallel(const ir::Program& program,
                       const remap::Analysis& analysis,
                       const codegen::RuntimeProgram& code,
                       const RunOptions& options) {
  Machine machine(program, analysis, code, options);
  return machine.run();
}

}  // namespace hpfc::runtime
