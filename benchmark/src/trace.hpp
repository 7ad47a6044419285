// In-memory span recorder for the traced benchmark pass.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public entry points (parse, each compiler pass, run,
// restore). Each span keeps its name, start, end and parent; every op gets
// its own trace id. Nothing is written until the pass ends, so recording
// costs two clock reads and one vector append per span. The untraced pass
// passes a null Tracer and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static string: a layer-qualified call name
  std::uint32_t trace_id = 0;
  int parent = -1;  ///< index of the parent span, -1 for an op's root
  Clock::time_point start;
  Clock::time_point end;
  /// Report totals attached as arguments instead of fake child intervals.
  std::vector<std::pair<const char*, double>> args;
};

class Tracer {
 public:
  Tracer();

  /// Starts a new op: later root spans carry this trace id.
  void begin_op(std::uint32_t trace_id) { trace_id_ = trace_id; }
  int begin(const char* name, int parent);
  void end(int span);
  void arg(int span, const char* key, double value);

  /// Summed duration of the closed direct children of `span`, in ms.
  [[nodiscard]] double child_ms(int span) const;

  /// Self time per span name in milliseconds, summed over every span:
  /// duration minus the part covered by direct child spans.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Writes Chrome trace-event JSON (opens in Perfetto). At most
  /// `max_ops` ops are written, so long passes keep the file small; the
  /// aggregates above always cover every span.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::uint32_t max_ops) const;

 private:
  Clock::time_point epoch_;
  std::uint32_t trace_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void arg(const char* key, double value) {
    if (tracer_ != nullptr) tracer_->arg(id_, key, value);
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace e2e
