# Smoke test for the hpfc CLI, run as a ctest script test:
#   cmake -DHPFC_BIN=<path-to-hpfc> -DHPFC_SOURCE_DIR=<repo-root>
#         [-DBENCH_BIN=<path-to-bench_fig02_useless>] -P cli_smoke.cmake
#
# Compiles examples/quickstart.hpf (the HPF-lite form of
# examples/quickstart.cpp) at all three levels via --run --compare and
# asserts:
#   1. exit code 0 with every level matching the sequential oracle,
#   2. O2 copies strictly fewer elements than O0 (the final
#      mapping-restoring redistribution is removed as useless), and
#   3. the --report-json level objects carry the run-report keys, agree
#      across backends, and list the shared keys in the bench JSON's order.
if(NOT DEFINED HPFC_BIN)
  message(FATAL_ERROR "cli_smoke: pass -DHPFC_BIN=<path to hpfc>")
endif()
if(NOT DEFINED HPFC_SOURCE_DIR)
  get_filename_component(HPFC_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

get_filename_component(_bin_dir "${HPFC_BIN}" DIRECTORY)

# The backend-invariant counters of a level object (runtime::
# write_json_fields): every report must carry them, and the thread and
# proc reruns must reproduce them exactly. The wire counters must exist
# too, but are live only on proc.
set(counters copies_performed elements_copied remote_messages remote_bytes
    local_copies pack_segments packed_bytes local_fastpath_copies supersteps
    fused_copies specialized_kernels specialized_dispatches plan_cache_hits
    plan_cache_misses symbolic_instantiations skipped_status_guard
    skipped_live_copy fills_skipped snapshot_bytes snapshot_runs_written)
set(wire_counters wire_bytes wire_msgs proc_spawns)

# Member names, in order, of the JSON object at path ARGN in `json`.
function(json_members out json)
  string(JSON count LENGTH "${json}" ${ARGN})
  math(EXPR last "${count} - 1")
  set(names)
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${json}" ${ARGN} ${i})
    list(APPEND names ${name})
  endforeach()
  set(${out} ${names} PARENT_SCOPE)
endfunction()
set(report_json "${_bin_dir}/cli_smoke_report.json")
file(REMOVE "${report_json}")

execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --validate --report-json=${report_json}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)

if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "cli_smoke: hpfc exited with ${status}\nstdout:\n${out}\nstderr:\n${err}")
endif()

foreach(level O0 O1 O2)
  if(NOT out MATCHES "${level}: [0-9]+ copies")
    message(FATAL_ERROR "cli_smoke: missing ${level} row in output:\n${out}")
  endif()
endforeach()

if(out MATCHES "MISMATCH")
  message(FATAL_ERROR "cli_smoke: a level diverged from the oracle:\n${out}")
endif()

string(REGEX MATCH "O0: [0-9]+ copies \\(([0-9]+) elems\\)" _ "${out}")
set(o0_elems "${CMAKE_MATCH_1}")
string(REGEX MATCH "O2: [0-9]+ copies \\(([0-9]+) elems\\)" _ "${out}")
set(o2_elems "${CMAKE_MATCH_1}")
if(o0_elems STREQUAL "" OR o2_elems STREQUAL "")
  message(FATAL_ERROR "cli_smoke: could not parse copy counts from:\n${out}")
endif()

if(NOT o2_elems LESS o0_elems)
  message(FATAL_ERROR
    "cli_smoke: expected O2 to copy strictly fewer elements than O0 "
    "(O0=${o0_elems}, O2=${o2_elems}):\n${out}")
endif()

# --report-json: the dumped RunReport must exist, carry the schema marker,
# one entry per level, and agree with the stdout elements-copied counts.
if(NOT EXISTS "${report_json}")
  message(FATAL_ERROR "cli_smoke: --report-json did not write ${report_json}")
endif()
file(READ "${report_json}" report)

if(NOT report MATCHES "\"schema\": \"hpfc-report-v2\"")
  message(FATAL_ERROR "cli_smoke: report JSON missing schema marker:\n${report}")
endif()
# Machine configuration: resolved rank count, execution backend, threads.
if(NOT report MATCHES "\"ranks\": [1-9][0-9]*")
  message(FATAL_ERROR "cli_smoke: report JSON missing resolved ranks:\n${report}")
endif()
if(NOT report MATCHES "\"backend\": \"seq\"")
  message(FATAL_ERROR "cli_smoke: report JSON missing backend:\n${report}")
endif()
if(NOT report MATCHES "\"threads\": [0-9]+")
  message(FATAL_ERROR "cli_smoke: report JSON missing threads:\n${report}")
endif()
if(NOT report MATCHES "\"exec_ms\": [0-9]")
  message(FATAL_ERROR "cli_smoke: report JSON missing exec_ms:\n${report}")
endif()
# The per-phase wall-clock split of exec_ms (pack / exchange / unpack)
# and the snapshot clocks (0 here — snapshots are off without
# --snapshot-dir, but the keys must exist).
foreach(timer pack_ms exchange_ms unpack_ms snapshot_ms restore_ms)
  if(NOT report MATCHES "\"${timer}\": [0-9]")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${timer}:\n${report}")
  endif()
endforeach()
foreach(level O0 O1 O2)
  if(NOT report MATCHES "\"level\": \"${level}\"")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${level} entry:\n${report}")
  endif()
endforeach()
foreach(field ${counters} ${wire_counters})
  if(NOT report MATCHES "\"${field}\": [0-9]+")
    message(FATAL_ERROR "cli_smoke: report JSON missing ${field}:\n${report}")
  endif()
endforeach()
if(NOT report MATCHES "\"sim_time_ms\": [0-9]")
  message(FATAL_ERROR "cli_smoke: report JSON missing sim_time_ms:\n${report}")
endif()
# No real sockets under the in-process backends: seq wire counters are 0.
if(report MATCHES "\"proc_spawns\": [1-9]")
  message(FATAL_ERROR
    "cli_smoke: seq run claims to have spawned workers:\n${report}")
endif()
# The default path runs through specialized kernels: every executed level
# installs at least one and dispatches through it.
if(report MATCHES "\"specialized_kernels\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: default run installed no specialized kernels:\n${report}")
endif()
# The default path serves plan slots from the plan cache: every executed
# level builds at least one plan for a (from, to) layout pair.
if(report MATCHES "\"plan_cache_misses\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: default run never touched the plan cache:\n${report}")
endif()
if(report MATCHES "\"oracle_match\": false")
  message(FATAL_ERROR "cli_smoke: report JSON records an oracle mismatch:\n${report}")
endif()

string(REGEX MATCH "\"level\": \"O0\", \"copies_performed\": [0-9]+, \"elements_copied\": ([0-9]+)" _ "${report}")
if(NOT CMAKE_MATCH_1 STREQUAL o0_elems)
  message(FATAL_ERROR
    "cli_smoke: report JSON O0 elements (${CMAKE_MATCH_1}) disagree with "
    "stdout (${o0_elems}):\n${report}")
endif()
string(REGEX MATCH "\"level\": \"O2\", \"copies_performed\": [0-9]+, \"elements_copied\": ([0-9]+)" _ "${report}")
if(NOT CMAKE_MATCH_1 STREQUAL o2_elems)
  message(FATAL_ERROR
    "cli_smoke: report JSON O2 elements (${CMAKE_MATCH_1}) disagree with "
    "stdout (${o2_elems}):\n${report}")
endif()

# The thread-per-rank backend must reproduce the same per-level counters:
# re-run the compare under --backend=thread and diff the count fields
# (wall-clock fields excluded) against the seq report.
set(thread_report_json "${_bin_dir}/cli_smoke_report_thread.json")
file(REMOVE "${thread_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --backend=thread --threads=3
          --report-json=${thread_report_json}
  OUTPUT_VARIABLE thread_out
  ERROR_VARIABLE thread_err
  RESULT_VARIABLE thread_status)
if(NOT thread_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --backend=thread exited with "
    "${thread_status}\nstdout:\n${thread_out}\nstderr:\n${thread_err}")
endif()
if(thread_out MATCHES "MISMATCH")
  message(FATAL_ERROR
    "cli_smoke: thread backend diverged from the oracle:\n${thread_out}")
endif()
file(READ "${thread_report_json}" thread_report)
if(NOT thread_report MATCHES "\"backend\": \"thread\"")
  message(FATAL_ERROR
    "cli_smoke: thread report JSON missing backend key:\n${thread_report}")
endif()
foreach(field ${counters})
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" thread_counts "${thread_report}")
  if(NOT seq_counts STREQUAL thread_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between backends\nseq:    ${seq_counts}\n"
      "thread: ${thread_counts}")
  endif()
endforeach()

# The real-process socket backend must reproduce the same per-level
# counters: NetStats are computed from the routed inboxes after the framed
# payloads physically cross the worker sockets, so every communication
# counter must agree with seq byte-for-byte while the wire counters
# (socket traffic that only exists here) come alive.
set(proc_report_json "${_bin_dir}/cli_smoke_report_proc.json")
file(REMOVE "${proc_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --compare --backend=proc
          --report-json=${proc_report_json}
  OUTPUT_VARIABLE proc_out
  ERROR_VARIABLE proc_err
  RESULT_VARIABLE proc_status)
if(NOT proc_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --backend=proc exited with "
    "${proc_status}\nstdout:\n${proc_out}\nstderr:\n${proc_err}")
endif()
if(proc_out MATCHES "MISMATCH")
  message(FATAL_ERROR
    "cli_smoke: proc backend diverged from the oracle:\n${proc_out}")
endif()
file(READ "${proc_report_json}" proc_report)
if(NOT proc_report MATCHES "\"backend\": \"proc\"")
  message(FATAL_ERROR
    "cli_smoke: proc report JSON missing backend key:\n${proc_report}")
endif()
foreach(field ${counters})
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" proc_counts "${proc_report}")
  if(NOT seq_counts STREQUAL proc_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between backends\nseq:  ${seq_counts}\n"
      "proc: ${proc_counts}")
  endif()
endforeach()
# ...but the wire counters must be live: the first executed level forked
# real workers, each later level adopted the mesh the one before it parked
# (0 spawns), and every level shipped framed payloads through real sockets.
string(REGEX MATCHALL "\"proc_spawns\": [0-9]+" proc_spawns "${proc_report}")
list(LENGTH proc_spawns proc_levels)
if(proc_levels LESS 2)
  message(FATAL_ERROR
    "cli_smoke: proc report holds fewer than two levels:\n${proc_report}")
endif()
list(POP_FRONT proc_spawns first_spawns)
if(NOT first_spawns MATCHES ": [1-9]")
  message(FATAL_ERROR
    "cli_smoke: the first proc level spawned no workers:\n${proc_report}")
endif()
foreach(later ${proc_spawns})
  if(NOT later MATCHES ": 0$")
    message(FATAL_ERROR
      "cli_smoke: a later proc level forked workers instead of adopting "
      "the parked mesh:\n${proc_report}")
  endif()
endforeach()
if(proc_report MATCHES "\"wire_bytes\": 0[,}]")
  message(FATAL_ERROR
    "cli_smoke: proc run moved no bytes over the wire:\n${proc_report}")
endif()

# Flag contract: each tool's own parser is the only definition of its
# flags. --paranoid (validate the liveness invariant after every step)
# runs through hpfc, and a misspelled flag is rejected with exit code 2.
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --paranoid
  OUTPUT_VARIABLE paranoid_out
  ERROR_VARIABLE paranoid_err
  RESULT_VARIABLE paranoid_status)
if(NOT paranoid_status EQUAL 0 OR NOT paranoid_out MATCHES "\\[oracle-match\\]")
  message(FATAL_ERROR "cli_smoke: hpfc --paranoid exited with "
    "${paranoid_status}\nstdout:\n${paranoid_out}\nstderr:\n${paranoid_err}")
endif()
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --paranoidd
  OUTPUT_VARIABLE typo_out
  ERROR_VARIABLE typo_err
  RESULT_VARIABLE typo_status)
if(NOT typo_status EQUAL 2)
  message(FATAL_ERROR "cli_smoke: hpfc --paranoidd exited with "
    "${typo_status}, expected 2\nstderr:\n${typo_err}")
endif()

# The bench harness and tools/run_benches reject unknown flags too, and
# pass --paranoid and the snapshot flags through (the CI paranoid and
# snapshot legs depend on it). Only when the benches are built.
if(DEFINED BENCH_BIN)
  get_filename_component(bench_dir "${BENCH_BIN}" DIRECTORY)
  set(run_benches "${HPFC_SOURCE_DIR}/tools/run_benches")
  set(bench_json "${_bin_dir}/cli_smoke_bench.json")
  # With Google Benchmark on, --bogus must fail the gbench flag check.
  foreach(bad_args "--no-gbench;--bogus" "--no-gbench;--reps=banana"
                   "--bogus")
    execute_process(
      COMMAND "${BENCH_BIN}" --reps=1 --warmup=0 ${bad_args}
      OUTPUT_VARIABLE bench_out
      ERROR_VARIABLE bench_err
      RESULT_VARIABLE bench_status)
    if(bench_status EQUAL 0)
      message(FATAL_ERROR "cli_smoke: bench_fig02_useless accepted "
        "${bad_args}\nstdout:\n${bench_out}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${run_benches}" "${bench_dir}" "${bench_json}"
            --quick --only=fig02 --bogus
    OUTPUT_VARIABLE rb_out
    ERROR_VARIABLE rb_err
    RESULT_VARIABLE rb_status)
  if(rb_status EQUAL 0)
    message(FATAL_ERROR "cli_smoke: run_benches accepted --bogus\n"
      "stdout:\n${rb_out}\nstderr:\n${rb_err}")
  endif()
  # One run-report writer: hpfc's level object and a bench level object
  # list the shared RunReport keys in the same order; each surface adds
  # only its own keys.
  set(bench_level_json "${_bin_dir}/cli_smoke_bench_level.json")
  file(REMOVE "${bench_level_json}")
  execute_process(
    COMMAND "${BENCH_BIN}" --no-gbench --reps=1 --warmup=0
            --json=${bench_level_json}
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err
    RESULT_VARIABLE bench_status)
  if(NOT bench_status EQUAL 0)
    message(FATAL_ERROR "cli_smoke: bench_fig02_useless --json exited with "
      "${bench_status}\nstderr:\n${bench_err}")
  endif()
  file(READ "${bench_level_json}" bench_report)
  json_members(bench_keys "${bench_report}" figures 0 levels 0)
  list(REMOVE_ITEM bench_keys level host_allocs compile_wall_ms run_wall_ms)
  json_members(hpfc_keys "${report}" levels 0)
  list(REMOVE_ITEM hpfc_keys level oracle_match)
  if(NOT hpfc_keys STREQUAL bench_keys)
    message(FATAL_ERROR "cli_smoke: hpfc and bench level keys differ\n"
      "hpfc:  ${hpfc_keys}\nbench: ${bench_keys}")
  endif()

  set(bench_snap_dir "${_bin_dir}/cli_smoke_bench_snapshots")
  file(REMOVE_RECURSE "${bench_snap_dir}")
  execute_process(
    COMMAND "${run_benches}" "${bench_dir}" "${bench_json}"
            --quick --only=fig02 --paranoid
            --snapshot-dir=${bench_snap_dir} --snapshot-every=1
    OUTPUT_VARIABLE rb_out
    ERROR_VARIABLE rb_err
    RESULT_VARIABLE rb_status)
  if(NOT rb_status EQUAL 0)
    message(FATAL_ERROR "cli_smoke: run_benches --paranoid --snapshot-dir "
      "exited with ${rb_status}\nstdout:\n${rb_out}\nstderr:\n${rb_err}")
  endif()
endif()

# A control character in a path must not break the report JSON: run on
# a copy of the example whose name holds a tab. The raw report must hold
# no tab byte (JSON forbids control characters in strings), and the
# parsed "source" must round-trip the path.
set(tab_source "${_bin_dir}/cli_smoke_q\tx.hpf")
file(COPY_FILE "${HPFC_SOURCE_DIR}/examples/quickstart.hpf" "${tab_source}")
set(tab_report_json "${_bin_dir}/cli_smoke_report_tab.json")
file(REMOVE "${tab_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${tab_source}" --run
          --report-json=${tab_report_json}
  OUTPUT_VARIABLE tab_out
  ERROR_VARIABLE tab_err
  RESULT_VARIABLE tab_status)
if(NOT tab_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc on a tab-named source exited with "
    "${tab_status}\nstdout:\n${tab_out}\nstderr:\n${tab_err}")
endif()
file(READ "${tab_report_json}" tab_report)
if(tab_report MATCHES "\t")
  message(FATAL_ERROR
    "cli_smoke: report JSON holds a raw tab:\n${tab_report}")
endif()
string(JSON tab_parsed ERROR_VARIABLE tab_json_error
       GET "${tab_report}" source)
if(tab_json_error OR NOT tab_parsed STREQUAL tab_source)
  message(FATAL_ERROR "cli_smoke: report JSON source '${tab_parsed}' does "
    "not round-trip '${tab_source}' (${tab_json_error}):\n${tab_report}")
endif()
file(REMOVE "${tab_source}")

# --snapshot-dir: the run seals crash-consistent snapshots, the report's
# snapshot counters come alive, and the CLI's own post-run restore fills
# restore_ms. A thread-backend rerun must journal byte-identical
# snapshot work (the counters are program-structural).
set(snap_dir "${_bin_dir}/cli_smoke_snapshots")
file(REMOVE_RECURSE "${snap_dir}")
set(snap_report_json "${_bin_dir}/cli_smoke_report_snap.json")
file(REMOVE "${snap_report_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --snapshot-dir=${snap_dir}
          --report-json=${snap_report_json}
  OUTPUT_VARIABLE snap_out
  ERROR_VARIABLE snap_err
  RESULT_VARIABLE snap_status)
if(NOT snap_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: hpfc --snapshot-dir exited with "
    "${snap_status}\nstdout:\n${snap_out}\nstderr:\n${snap_err}")
endif()
if(NOT EXISTS "${snap_dir}/journal" OR NOT EXISTS "${snap_dir}/manifest")
  message(FATAL_ERROR
    "cli_smoke: --snapshot-dir left no sealed journal/manifest in ${snap_dir}")
endif()
file(READ "${snap_report_json}" snap_report)
foreach(field snapshot_bytes snapshot_runs_written)
  if(snap_report MATCHES "\"${field}\": 0[,}]")
    message(FATAL_ERROR
      "cli_smoke: snapshot run recorded ${field} = 0:\n${snap_report}")
  endif()
endforeach()
set(snap_thread_dir "${_bin_dir}/cli_smoke_snapshots_thread")
file(REMOVE_RECURSE "${snap_thread_dir}")
set(snap_thread_json "${_bin_dir}/cli_smoke_report_snap_thread.json")
file(REMOVE "${snap_thread_json}")
execute_process(
  COMMAND "${HPFC_BIN}" "${HPFC_SOURCE_DIR}/examples/quickstart.hpf"
          --run --backend=thread --snapshot-dir=${snap_thread_dir}
          --report-json=${snap_thread_json}
  OUTPUT_VARIABLE snap_thread_out
  ERROR_VARIABLE snap_thread_err
  RESULT_VARIABLE snap_thread_status)
if(NOT snap_thread_status EQUAL 0)
  message(FATAL_ERROR "cli_smoke: thread snapshot run exited with "
    "${snap_thread_status}\nstderr:\n${snap_thread_err}")
endif()
file(READ "${snap_thread_json}" snap_thread_report)
foreach(field snapshot_bytes snapshot_runs_written)
  string(REGEX MATCHALL "\"${field}\": [0-9]+" seq_counts "${snap_report}")
  string(REGEX MATCHALL "\"${field}\": [0-9]+" thread_counts
         "${snap_thread_report}")
  if(NOT seq_counts STREQUAL thread_counts)
    message(FATAL_ERROR
      "cli_smoke: ${field} differs between snapshot backends\n"
      "seq:    ${seq_counts}\nthread: ${thread_counts}")
  endif()
endforeach()

message(STATUS
  "cli_smoke: OK (O0 copied ${o0_elems} elems, O2 copied ${o2_elems}, "
  "seq/thread/proc backends agree, unknown flags are rejected, "
  "control characters in paths are escaped, "
  "snapshots seal and restore, report at ${report_json})")
