// Shared command-line surface for every tool that executes the runtime
// (tools/hpfc.cpp and the bench harness): one parser for the machine
// flags (--backend/--threads/--ranks/--seed/--proc-timeout-ms) plus every
// registered toggle, built on the runtime::Toggle registry so a new
// toggle becomes a new flag everywhere without touching a parser.
//
// Usage: construct a RunFlags, feed it each argv element; Consumed means
// the flag was recognized and applied to `options`, Unrecognized means
// the caller should try its own tool-specific flags, Error means the flag
// was shaped like ours but malformed (`error` holds the diagnostic).
#pragma once

#include <string>
#include <string_view>

#include "runtime/machine.hpp"

namespace hpfc::support::cli {

enum class Parsed {
  Consumed,      ///< recognized and applied to options
  Unrecognized,  ///< not a shared flag; caller handles it
  Error,         ///< a shared flag with a malformed value; see error
};

struct RunFlags {
  runtime::RunOptions options;
  std::string error;  ///< diagnostic for the last Error result

  Parsed consume(std::string_view arg);
};

/// Help text for every shared flag (one indented line each), for
/// embedding into a tool's usage message.
[[nodiscard]] std::string usage();

/// Machine-parsable flag table, one line per toggle/knob:
///   <cli-flag>\t<snake_key>\t<help>
/// Value-taking knobs keep their trailing '=' in the flag column.
/// tools/run_benches validates generic passthrough flags against this
/// (via `bench --list-toggles`), so the table is the single contract.
[[nodiscard]] std::string toggle_table();

}  // namespace hpfc::support::cli
