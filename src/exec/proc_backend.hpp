// The real-process execution backend: every rank of the simulated machine
// is a forked worker process, and exchange() moves a superstep's payloads
// between the workers over a socket mesh. The exchange only moves bytes:
// runtime::Machine charges the superstep from the round's traffic table,
// and the round checks the returned inboxes against its message table
// before unpacking (runtime/round.hpp).
//
// Rank *compute* still runs in the controlling process (the runtime's
// ranks share one Machine address space — only the communication is
// real). Payloads live in one shared payload arena: a memfd the
// controller creates before it forks, maps MAP_SHARED and grows with
// ftruncate; every worker inherits the descriptor and maps it too. The
// controller packs each message into its out-slot of the arena and
// tells the workers, on their control channels, only descriptors: which
// out-slots each worker sends and which in-slots it receives into.
// The payload then crosses exactly one socket: the source worker
// gather-sends it straight from its out-slot to the destination worker,
// which scatter-receives it straight into its in-slot. Each worker
// answers with the in-slots it filled, in deterministic (src, emission)
// order — the order of the reference router in testing/oracles.hpp —
// and the controller unpacks from the arena.
//
// The workers outlive the backend. The worker mesh — the P workers, their
// control channels and socket mesh, and the payload arena — is parked in
// one process-wide slot when a healthy backend is destroyed, and the next
// backend with the same P and timeout adopts it instead of forking. A
// mesh that broke, does not fit, or lost a worker is shut down instead.
// Only the process that forked a mesh adopts or reaps it: a forked child
// leaves its parent's workers alone, and the parked mesh is reaped when
// its process exits.
//
// Robustness is part of the contract: every socket operation carries a
// deadline (ProcConfig::timeout_ms), a worker checks every descriptor
// against the arena's size before it touches arena memory, a worker that
// dies mid-superstep (or rejects a descriptor) surfaces as a ProcError
// diagnostic naming the rank (never a hang), and every shutdown reaps
// every worker, escalating to SIGKILL when a shutdown frame goes
// unanswered. A worker whose controller dies sees EOF on its control
// channel and exits, so no worker outlives its process.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "net/cost_model.hpp"
#include "net/wire.hpp"

namespace hpfc::exec {

/// Thrown when the proc backend's wire fails: a worker died mid-superstep
/// or rejected a descriptor, a socket operation exceeded its deadline, or
/// a frame arrived corrupted; and at construction when the open-file
/// limit cannot hold the mesh.
class ProcError : public std::runtime_error {
 public:
  explicit ProcError(const std::string& what) : std::runtime_error(what) {}
};

/// One message of an arena exchange: its route, tag and segment count,
/// and its two slots in the payload arena (element offsets) — the
/// out-slot its source packed and the in-slot its destination's worker
/// fills. A message's slots must not overlap.
struct ArenaMessage {
  int src = 0;
  int dst = 0;
  int tag = 0;
  int segments = 0;
  std::uint64_t elements = 0;
  std::uint64_t out_offset = 0;
  std::uint64_t in_offset = 0;
};

/// Per rank, the in-slot descriptors its worker filled, in (src,
/// emission) order.
using Inboxes = std::vector<std::vector<net::wire::Descriptor>>;

/// The workers, control channels and payload arena a ProcBackend runs on
/// (exec/proc_backend.cpp). It outlives its backend in the parking slot.
struct ProcMesh;

class ProcBackend final : public Backend {
 public:
  /// Adopts the parked mesh when it has `ranks` workers, the same
  /// timeout and every worker alive; otherwise shuts it down and forks a
  /// fresh one (wire().proc_spawns counts the workers forked: `ranks` or
  /// 0).
  ProcBackend(int ranks, ProcConfig config);
  /// Parks the mesh unless an exchange failed or a worker is gone; then
  /// shuts it down and reaps every worker.
  ~ProcBackend() override;

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Proc;
  }
  /// Rank compute runs in the controlling process (the worker processes
  /// only move bytes) on the step pool's host threads.
  [[nodiscard]] int workers() const override {
    return pool_ != nullptr ? pool_->threads() : 1;
  }

  /// Rank work runs through a StepPool — the same fork-join engine the
  /// Thread kind uses — so pack/unpack phases routed through
  /// step() execute concurrently even though the payload bytes later
  /// cross real process boundaries.
  void step(const RankFn& fn) override;

  /// The shared payload arena, grown to hold at least `elements` doubles
  /// (ftruncate, then a fresh mapping). The span covers the whole arena
  /// and stays valid until a later call grows it.
  std::span<double> arena(std::size_t elements);

  /// One BSP superstep of all-to-all personalized communication over the
  /// socket mesh. Every payload of `table` must already sit in its
  /// out-slot of arena(); on return each sits in its in-slot too. Emission
  /// order is table order per source. Returns inboxes[r] = the in-slot
  /// descriptors rank r's worker filled, in deterministic (src, emission)
  /// order. Moves bytes only: it counts WireStats and charges no
  /// NetStats.
  Inboxes exchange(std::span<const ArenaMessage> table);

  /// Fault injection for tests: SIGKILLs the worker for `rank`. The next
  /// exchange must fail with a ProcError within the configured timeout,
  /// and the mesh is not parked.
  void kill_worker(int rank);
  /// The process id of the worker for `rank` (-1 once it was reaped).
  [[nodiscard]] pid_t worker_pid(int rank) const;

  /// Shuts down and reaps the parked mesh, if this process forked one, so
  /// that the next backend forks afresh. Process exit does the same.
  static void release_parked();

  [[nodiscard]] const ProcConfig& config() const { return config_; }

 private:
  [[noreturn]] void wire_failed(int rank, const std::string& why);
  /// Fails the superstep on the per-rank wire errors of one phase
  /// (`errors[r]` empty for a healthy rank), naming the rank whose worker
  /// rejected a descriptor when there is one — the others then only lost
  /// a peer — and otherwise the lowest failed rank. Returns when no rank
  /// failed.
  void check_phase(const std::vector<std::string>& errors);

  ProcConfig config_;
  std::unique_ptr<ProcMesh> mesh_;
  /// Fork-join pool for step() rank work and the pipelined exchange's
  /// per-rank gather-sends / scatter-receives. Created at the END of the
  /// constructor, after any fork — so no pool thread is ever alive in
  /// a child process.
  std::unique_ptr<StepPool> pool_;
  /// Set while an exchange is in flight and left set when it fails: the
  /// protocol state is unknown, so the mesh is neither shut down
  /// gracefully nor parked. Atomic because the pipelined exchange phases
  /// run on pool threads.
  std::atomic<bool> broken_{false};
};

/// Alpha-beta constants fitted from measured socket supersteps: least
/// squares of wall seconds against the busiest-rank (messages, bytes)
/// load the cost model charges, over point-to-point round-trips and
/// all-to-all exchanges of graded payload sizes on a live ProcBackend.
struct Calibration {
  double latency = 0.0;        ///< fitted alpha, seconds per message
  double inv_bandwidth = 0.0;  ///< fitted beta, seconds per byte
  int samples = 0;             ///< measured (load, time) samples fitted

  [[nodiscard]] net::CostModel cost_model() const {
    return net::CostModel{latency, inv_bandwidth};
  }
};

/// Spawns a throwaway ProcBackend and fits the constants. `rounds` wall
/// measurements are taken per probe pattern (medians are fitted, so a
/// scheduler hiccup cannot skew a constant).
Calibration calibrate_wire(int ranks = 4, ProcConfig config = {},
                           int rounds = 7);

}  // namespace hpfc::exec
