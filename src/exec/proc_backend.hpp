// The real-process execution backend: every rank of the simulated machine
// is a forked worker process, and exchange() physically round-trips the
// superstep's framed per-(src, dst) payloads through a socket mesh before
// the shared net::account_superstep charges the alpha-beta clock.
//
// Rank *compute* still runs in the controlling process (the runtime's
// ranks share one Machine address space — only the communication is
// real); what the workers add is a genuine wire: payload bytes leave the
// controller, hop src-worker -> dst-worker over AF_UNIX socketpairs, and
// come back assembled in the same deterministic (src, emission) inbox
// order route_superstep would produce — so NetStats and checksums stay
// byte-identical to seq/thread.
//
// Robustness is part of the contract: every socket operation carries a
// deadline (ProcConfig::timeout_ms), a worker that dies mid-superstep
// surfaces as a ProcError diagnostic naming the rank (never a hang), and
// the destructor reaps every worker, escalating to SIGKILL when a
// shutdown frame goes unanswered.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "net/wire.hpp"

namespace hpfc::exec {

/// Thrown when the proc backend's wire fails: a worker died mid-superstep,
/// a socket operation exceeded its deadline, or a frame arrived corrupted;
/// and at construction when the open-file limit cannot hold the mesh.
class ProcError : public std::runtime_error {
 public:
  explicit ProcError(const std::string& what) : std::runtime_error(what) {}
};

class ProcBackend final : public Backend {
 public:
  ProcBackend(int ranks, net::CostModel cost, ProcConfig config);
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

  std::vector<std::vector<net::Message>> exchange(
      std::vector<std::vector<net::Message>> outboxes) override;

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
                                       std::vector<int> peer_fds,
                                       int timeout_ms);
  void shutdown_workers() noexcept;
  [[noreturn]] void wire_failed(int rank, const std::string& why);

  ProcConfig config_;
  std::vector<Worker> workers_;
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
