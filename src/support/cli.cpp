#include "support/cli.hpp"

#include <charconv>
#include <sstream>

#include "exec/backend.hpp"

namespace hpfc::support::cli {

bool parse_int(std::string_view value, int& out) {
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

namespace {

bool parse_unsigned(std::string_view value, unsigned& out) {
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// "--flag=value" accessor: returns true and fills `value` when `arg`
/// starts with `flag` (which must end in '=').
bool value_flag(std::string_view arg, std::string_view flag,
                std::string_view& value) {
  if (!arg.starts_with(flag)) return false;
  value = arg.substr(flag.size());
  return true;
}

}  // namespace

Parsed RunFlags::consume(std::string_view arg) {
  if (arg == "--paranoid") {
    options.paranoid = true;
    return Parsed::Consumed;
  }

  std::string_view value;
  if (value_flag(arg, "--backend=", value)) {
    const auto kind = exec::parse_backend_kind(value);
    if (!kind.has_value()) {
      error = "unknown backend '" + std::string(value) +
              "' (expected seq, thread, or proc)";
      return Parsed::Error;
    }
    options.backend = *kind;
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--threads=", value)) {
    if (!parse_int(value, options.threads) || options.threads < 0) {
      error = "bad --threads value '" + std::string(value) + "'";
      return Parsed::Error;
    }
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--ranks=", value)) {
    if (!parse_int(value, options.ranks) || options.ranks < 0) {
      error = "bad --ranks value '" + std::string(value) + "'";
      return Parsed::Error;
    }
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--seed=", value)) {
    if (!parse_unsigned(value, options.seed)) {
      error = "bad --seed value '" + std::string(value) + "'";
      return Parsed::Error;
    }
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--proc-timeout-ms=", value)) {
    if (!parse_int(value, options.proc_timeout_ms) ||
        options.proc_timeout_ms <= 0) {
      error = "bad --proc-timeout-ms value '" + std::string(value) + "'";
      return Parsed::Error;
    }
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--snapshot-dir=", value)) {
    if (value.empty()) {
      error = "--snapshot-dir= needs a directory";
      return Parsed::Error;
    }
    options.snapshot_dir = std::string(value);
    return Parsed::Consumed;
  }
  if (value_flag(arg, "--snapshot-every=", value)) {
    if (!parse_int(value, options.snapshot_every) ||
        options.snapshot_every <= 0) {
      error = "bad --snapshot-every value '" + std::string(value) + "'";
      return Parsed::Error;
    }
    return Parsed::Consumed;
  }
  return Parsed::Unrecognized;
}

std::string usage() {
  std::ostringstream os;
  os << "  --backend=seq|thread|proc  execution backend for the runtime\n"
     << "  --threads=N          worker threads for --backend=thread "
        "(0 = auto)\n"
     << "  --ranks=N            machine size (0 = largest arrangement)\n"
     << "  --seed=N             branch-decision seed\n"
     << "  --proc-timeout-ms=N  socket deadline for --backend=proc\n"
     << "  --snapshot-dir=DIR   crash-consistent store snapshots into DIR\n"
     << "  --snapshot-every=N   snapshot every Nth remap boundary\n"
     << "  --paranoid           validate the liveness invariant after every\n"
     << "                       step (slow; for tests)\n";
  return os.str();
}

}  // namespace hpfc::support::cli
