// Execution backends: how the P ranks of the simulated machine actually
// run on the host.
//
// The runtime's compiled programs are rank-independent: every superstep is
// "each rank does its local guard/copy/compute work, then data moves
// between ranks". A Backend is the step engine for the first half:
// `step()` runs a closure once per task index 0..P-1 (P = ranks()) and
// waits for all of them (a BSP barrier). A task index is usually a rank,
// but a step may split other work by it: a round stencil's task t gathers
// a range of period tiles across every rank's storage
// (runtime/round.hpp). It charges nothing — runtime::Machine charges
// every superstep's NetStats from the round's traffic table
// (net::account_flows).
//
// Two implementations serve the three BackendKinds:
//   in-process    (backend.cpp) Seq runs rank 0..P-1 in turn on the
//                 calling thread; Thread runs ranks on a StepPool of
//                 persistent workers (min(threads, ranks) of them when P
//                 exceeds the host). All ranks share one address space,
//                 so the runtime's remap rounds copy rank to rank and
//                 build no messages.
//   ProcBackend   one worker process per rank (forked once per process
//                 and parked between backends); its exchange()
//                 moves payloads worker to worker through a real socket
//                 mesh, out of and into a shared payload arena
//                 (exec/proc_backend.hpp). The only backend that moves
//                 messages.
//
// Rank work, destination storage and every counter are identical across
// backends; only wall-clock time (and, for proc, the wire counters)
// differs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace hpfc::exec {

enum class BackendKind {
  Seq,     ///< sequential BSP loop, zero threading overhead
  Thread,  ///< thread-per-rank SPMD (pooled when ranks > workers)
  Proc,    ///< process-per-rank with a real socket mesh for exchanges
};

[[nodiscard]] const char* to_string(BackendKind kind);
/// Parses "seq" / "thread" / "proc"; nullopt on anything else.
[[nodiscard]] std::optional<BackendKind> parse_backend_kind(
    std::string_view name);

/// Configuration for BackendKind::Proc; ignored by the other backends.
struct ProcConfig {
  /// Deadline for every socket operation, in milliseconds: bounds how
  /// long a dead or wedged worker can stall an exchange before the run
  /// fails with a diagnostic instead of hanging.
  int timeout_ms = 10000;
};

/// Real-socket traffic counters, filled by ProcBackend and zero for the
/// in-process backends. Deliberately NOT part of net::NetStats: NetStats
/// is byte-identical across backends (the determinism contract asserted
/// by tests and `check_bench_regression --identical`), while wire traffic
/// only exists when payloads physically cross a process boundary.
struct WireStats {
  /// Framed bytes written to real sockets (headers + bodies, every
  /// socket: the descriptor frames between controller and workers and
  /// the payload-carrying frames between workers).
  std::uint64_t wire_bytes = 0;
  /// Payload messages written to a real socket: one per off-rank
  /// message, on its one worker-to-worker hop.
  std::uint64_t wire_msgs = 0;
  /// Worker processes the backend forked: P when it forked a fresh worker
  /// mesh, 0 when it adopted the one an earlier backend of the process
  /// parked.
  std::uint64_t proc_spawns = 0;

  friend bool operator==(const WireStats&, const WireStats&) = default;
};

/// The work of one task of a step, called with the task index t in
/// [0, ranks()). Tasks of one step may run concurrently, so the closure
/// may write only what no other task of the step reads or writes: its
/// rank's state (the rank's local memory, its slot of a per-rank scratch
/// vector) when t is a rank, or slices of any rank's storage that are
/// disjoint from every other task's by construction (the round stencil's
/// period ranges). Everything else it touches must stay immutable for
/// the step.
///
/// A non-owning callable reference (two pointers, no allocation): rank
/// closures are short-lived lambdas on the controlling thread's stack and
/// every step() call would otherwise heap-allocate a std::function for
/// its capture state.  The referenced callable must outlive the step()
/// call — passing a lambda directly at the call site is always safe.
class RankFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RankFn> &&
             std::is_invocable_v<const F&, int>)
  RankFn(const F& fn)  // NOLINT(google-explicit-constructor)
      : object_(&fn), call_([](const void* object, int rank) {
          (*static_cast<const F*>(object))(rank);
        }) {}

  void operator()(int rank) const { call_(object_, rank); }

 private:
  const void* object_;
  void (*call_)(const void*, int);
};

/// A reusable fork-join rank pool: min(threads, ranks) persistent workers
/// execute a published RankFn under a generation-counter protocol, with
/// worker w owning ranks w, w+T, w+2T, ... (static striping — no work
/// queue, no per-rank locking). The mutex/condition hand-off around each
/// run() provides the happens-before edges between consecutive runs that
/// make rank-owned data safely visible across workers.
///
/// Runs the Thread kind's rank work, and lets ProcBackend drive its
/// per-rank wire phases (gather-sends, scatter-receives) through the same
/// engine that runs pack/unpack rank work.
class StepPool {
 public:
  /// `threads <= 0` picks min(ranks, hardware_concurrency).
  StepPool(int ranks, int threads);
  ~StepPool();
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(r) for every rank r across the pool and returns once all
  /// ranks finished (a barrier). If rank work throws, the lowest-indexed
  /// failing worker's exception is rethrown here.
  void run(const RankFn& fn);

 private:
  void worker_loop(int worker);

  int ranks_;
  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable step_done_;
  const RankFn* fn_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

class Backend {
 public:
  explicit Backend(int ranks);
  virtual ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] const char* name() const { return to_string(kind()); }
  [[nodiscard]] int ranks() const { return ranks_; }
  /// Host threads executing rank work (1 for BackendKind::Seq).
  [[nodiscard]] virtual int workers() const = 0;
  /// Real-socket traffic (zero for every backend but Proc).
  [[nodiscard]] const WireStats& wire() const { return wire_; }

  /// Runs fn(t) for every task index t in [0, ranks()) — task t in rank
  /// t's execution context — and returns once all tasks finished (a
  /// superstep barrier). Tasks may run concurrently: see RankFn for what
  /// they may write. If a task throws, one of the exceptions is rethrown
  /// here.
  virtual void step(const RankFn& fn) = 0;

 protected:
  int ranks_;
  WireStats wire_;
};

/// Creates a backend. `threads` applies to BackendKind::Thread only:
/// the worker count, clamped to [1, ranks]; 0 picks
/// min(ranks, hardware_concurrency). `proc` applies to BackendKind::Proc
/// only (the socket operation deadline).
std::unique_ptr<Backend> make_backend(BackendKind kind, int ranks,
                                      int threads = 0, ProcConfig proc = {});

}  // namespace hpfc::exec
