// The runtime of §5: executes a compiled routine on the simulated
// distributed-memory machine. Arrays are stored as statically mapped
// versions (one block-cyclic local piece per rank); the generated guard
// code (codegen::RuntimeProgram) manages the per-array status descriptor
// and per-copy live flags; Copy ops run real redistribution communication
// through an exec::Backend (the sequential BSP loop or the thread-per-rank
// engine, or forked worker processes over sockets — all yield identical
// results). The machine charges NetStats itself, from each round's traffic
// table, so they are identical across backends by construction.
// Copies sharing a codegen copy group (one remapping vertex) are deferred
// and flushed as ONE fused superstep with per-(src,dst) combined frames
// (see redist/fused.hpp), moved straight between ranks' storage in
// process and as real messages on proc (runtime/round.hpp).
//
// Execution is differential-testable: writes stamp deterministic values
// derived from a global write counter, and reads fold order-independent
// checksums (runtime/expected.hpp). The sequential reference interpreter
// (testing/reference.hpp, behind driver::run_oracle) walks the same
// control-flow path over plain n-element arrays, so read checksums must
// be identical. The machine itself keeps no such shadow: each array's
// expected values are a closed-form descriptor (last write's counter,
// live box or dead), against which exported dummies and, under
// RunOptions::paranoid, live copies are checked stretch by stretch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "codegen/runtime_ops.hpp"
#include "exec/backend.hpp"
#include "net/network.hpp"
#include "remap/build.hpp"

namespace hpfc::exec {
struct Calibration;
}

namespace hpfc::runtime {

struct RunOptions {
  /// Machine size; 0 = max processor-arrangement size used by the program.
  int ranks = 0;
  net::CostModel cost{};
  /// Seed for branch decisions (if conditions). The same seed makes the
  /// oracle and the parallel run follow the same path.
  unsigned seed = 1;
  /// Total distributed-memory budget in bytes; 0 = unlimited. When an
  /// allocation would exceed it, the runtime evicts live non-current
  /// copies (they are regenerated later with communication, §5.2).
  std::uint64_t memory_limit = 0;
  /// Validate, after every step, that every live non-current copy holds
  /// its array's expected values — the closed form of the last write and
  /// the live regions and kills since (the liveness invariant). Slow; for
  /// tests.
  bool paranoid = false;
  /// How rank work executes on the host: the sequential BSP loop or the
  /// thread-per-rank engine. Both produce identical results and NetStats;
  /// only exec_ms differs. The oracle always runs sequentially.
  exec::BackendKind backend = exec::BackendKind::Seq;
  /// Worker threads for the thread backend (clamped to [1, ranks];
  /// 0 = min(ranks, hardware threads)). Ignored by the seq backend.
  int threads = 0;
  /// Proc backend only: deadline for every socket operation in
  /// milliseconds. Bounds how long a dead or wedged worker can stall an
  /// exchange before the run fails with a diagnostic instead of hanging.
  int proc_timeout_ms = 10000;
  /// Directory for crash-consistent snapshots of the versioned array
  /// store (persist::SnapshotWriter). Empty = snapshots disabled. The
  /// run starts a fresh journal, truncating the directory's previous
  /// one. The oracle never snapshots.
  std::string snapshot_dir;
  /// Snapshot every Nth remap boundary (a CFG node whose guard code
  /// ran). The final store is always sealed at exit regardless.
  /// Ignored without snapshot_dir.
  int snapshot_every = 1;
};

struct RunReport {
  std::uint64_t signature = 0;  ///< order-independent read checksum
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Remapping copies actually performed (communication happened).
  int copies_performed = 0;
  std::uint64_t elements_copied = 0;
  /// Remap guards that found the array already mapped as required
  /// (the paper's "inexpensive check of its status").
  int skipped_already_mapped = 0;
  /// Remap guards that found a live copy and reused it without
  /// communication (the live-copy optimization paying off).
  int skipped_live_copy = 0;
  int allocations = 0;
  int frees = 0;
  int evictions = 0;
  /// Compiled plan slots (specialized kernels with their segment tables)
  /// dropped under memory pressure after storage eviction alone could not
  /// satisfy the limit; each one is re-compiled — and re-specialized — on
  /// its next use.
  int plan_evictions = 0;
  std::uint64_t peak_bytes = 0;
  /// Bytes of the remote (off-rank) transfers: packed into message
  /// buffers on proc, copied straight between ranks' storage on seq and
  /// thread, the same count on every backend (src == dst transfers take
  /// the local fast path and are not included).
  std::uint64_t packed_bytes = 0;
  /// src == dst transfers executed as direct strided local copies,
  /// bypassing message materialization entirely.
  std::uint64_t local_fastpath_copies = 0;
  /// Every exported (out / inout) dummy argument's origin copy held its
  /// array's expected values at exit, checked per owned stretch against
  /// the closed-form descriptor.
  bool exported_values_ok = true;
  /// Charged by the machine alone: each superstep from its round's traffic
  /// table (net::account_flows), the kernel, dispatch, plan-cache and
  /// fused-copy counters where they arise.
  net::NetStats net;

  // Machine configuration and host timing, filled by every run: the
  // resolved rank count, the execution backend that ran the rank work,
  // the host worker threads it used, and the wall-clock time of the run
  // itself. Program compilation happens before the timed window, but the
  // lazy per-plan-slot transfer compilation on each site's first Copy is
  // part of the run and is included.
  int ranks = 0;
  std::string backend;
  int threads = 0;
  double exec_ms = 0.0;

  // Superstep phase timers: wall-clock accumulated over every exchange
  // superstep's pack / exchange / unpack window (run_benches' timeout
  // diagnostics read them). On seq and thread a round is one step of
  // direct copies, booked as pack_ms; exchange_ms and unpack_ms stay 0
  // there. They sum to less than exec_ms — guard evaluation and plan
  // compilation run outside the three windows.
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;

  // Real-socket traffic (exec::WireStats): zero unless the proc backend
  // ran. Deliberately outside NetStats — NetStats stay byte-identical
  // across backends, while wire traffic only exists when payloads
  // physically cross a process boundary.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t proc_spawns = 0;

  // Crash-consistent snapshot work (persist::SnapshotWriter; all zero
  // unless RunOptions::snapshot_dir is set). Bytes and runs count the
  // journal deltas and are byte-identical across execution backends —
  // snapshot boundaries are program-structural and the store contents
  // are deterministic — while snapshot_ms is host wall-clock. The
  // runtime never restores mid-run: restore_ms is filled by embedders
  // (benches, tools) that time persist::restore against this run.
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_runs_written = 0;
  double snapshot_ms = 0.0;
  double restore_ms = 0.0;

  [[nodiscard]] std::string summary() const;
};

/// The one JSON writer of a run report (docs/metrics.md): every per-level
/// key, as comma-separated members without braces, so each surface wraps
/// them in its own level object after its `"level"` key and appends its
/// own keys.
void write_json_fields(std::ostream& os, const RunReport& report);

/// `"calibration": {...}`: the fitted cost-model constants, as every
/// report surface writes them under --calibrate.
void write_json_calibration(std::ostream& os,
                            const exec::Calibration& calibration);

/// The machine size a run resolves to: RunOptions::ranks, or the largest
/// processor arrangement the program declares.
int machine_ranks(const ir::Program& program, const RunOptions& options);

/// Runs the compiled routine on the simulated machine.
RunReport run_parallel(const ir::Program& program,
                       const remap::Analysis& analysis,
                       const codegen::RuntimeProgram& code,
                       const RunOptions& options = {});

}  // namespace hpfc::runtime
