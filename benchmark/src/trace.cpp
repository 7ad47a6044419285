#include "trace.hpp"

#include <fstream>

namespace e2e {

namespace {

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::begin(const char* name, int parent) {
  Span span;
  span.name = name;
  span.trace_id = trace_id_;
  span.parent = parent;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

void Tracer::arg(int span, const char* key, double value) {
  spans_[static_cast<std::size_t>(span)].args.emplace_back(key, value);
}

double Tracer::child_ms(int span) const {
  // Children are recorded after their parent.
  double us = 0;
  for (std::size_t i = static_cast<std::size_t>(span) + 1; i < spans_.size();
       ++i)
    if (spans_[i].parent == span) us += micros(spans_[i].end - spans_[i].start);
  return us / 1e3;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_us[static_cast<std::size_t>(span.parent)] +=
          micros(span.end - span.start);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    totals[spans_[i].name] +=
        (micros(spans_[i].end - spans_[i].start) - child_us[i]) / 1e3;
  return totals;
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint32_t max_ops) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const char* sep = "\n";
  std::uint32_t ops = 0;
  std::uint32_t last_trace = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (ops == 0 || span.trace_id != last_trace) {
      if (++ops > max_ops) break;
      last_trace = span.trace_id;
    }
    out << sep << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << micros(span.start - epoch_)
        << ", \"dur\": " << micros(span.end - span.start)
        << ", \"args\": {\"trace_id\": " << span.trace_id
        << ", \"span_id\": " << i << ", \"parent\": " << span.parent;
    for (const auto& [key, value] : span.args)
      out << ", \"" << key << "\": " << value;
    out << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
