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
// Robustness is part of the contract: every socket operation carries a
// deadline (ProcConfig::timeout_ms), a worker checks every descriptor
// against the arena's size before it touches arena memory, a worker that
// dies mid-superstep (or rejects a descriptor) surfaces as a ProcError
// diagnostic naming the rank (never a hang), and the destructor reaps
// every worker, escalating to SIGKILL when a shutdown frame goes
// unanswered.
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

class ProcBackend final : public Backend {
 public:
  ProcBackend(int ranks, ProcConfig config);
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
  /// exchange must fail with a ProcError within the configured timeout.
  void kill_worker(int rank);

  [[nodiscard]] const ProcConfig& config() const { return config_; }

 private:
  struct Worker {
    pid_t pid = -1;
    net::wire::Socket ctrl;  ///< controller end of the control channel
  };

  [[noreturn]] static void worker_main(int rank, int ranks, int ctrl_fd,
                                       int arena_fd,
                                       std::vector<int> peer_fds,
                                       int timeout_ms);
  void shutdown_workers() noexcept;
  [[noreturn]] void wire_failed(int rank, const std::string& why);
  /// Fails the superstep on the per-rank wire errors of one phase
  /// (`errors[r]` empty for a healthy rank), naming the rank whose worker
  /// rejected a descriptor when there is one — the others then only lost
  /// a peer — and otherwise the lowest failed rank. Returns when no rank
  /// failed.
  void check_phase(const std::vector<std::string>& errors);

  ProcConfig config_;
  std::vector<Worker> workers_;
  /// The payload arena: a memfd every worker inherits, and the
  /// controller's MAP_SHARED mapping of all of it.
  int arena_fd_ = -1;
  double* arena_base_ = nullptr;
  std::size_t arena_bytes_ = 0;
  /// Fork-join pool for step() rank work and the pipelined exchange's
  /// per-rank gather-sends / scatter-receives. Created at the END of the
  /// constructor, after every fork — so no pool thread is ever alive in
  /// a child process.
  std::unique_ptr<StepPool> pool_;
  /// A wire error occurred; skip graceful shutdown. Atomic because the
  /// pipelined exchange phases run on pool threads.
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
