// Shared command-line surface for every tool that executes the runtime
// (tools/hpfc.cpp and the bench harness): one parser for the machine
// flags (--backend/--threads/--ranks/--seed/--proc-timeout-ms/
// --snapshot-dir/--snapshot-every) and the --paranoid validation switch.
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

/// Parses a flag's value into `out`; false unless the whole of `value`
/// is one base-10 integer.
[[nodiscard]] bool parse_int(std::string_view value, int& out);

/// Help text for every shared flag (one indented line each), for
/// embedding into a tool's usage message.
[[nodiscard]] std::string usage();

}  // namespace hpfc::support::cli
