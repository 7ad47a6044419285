#include "testing/reference.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <random>
#include <vector>

#include "runtime/expected.hpp"
#include "support/check.hpp"

namespace hpfc::testing {

namespace {

using ir::ArrayId;
using ir::CfgKind;
using mapping::Extent;

class Reference {
 public:
  Reference(const ir::Program& program, const remap::Analysis& analysis,
            const runtime::RunOptions& options)
      : program_(program), analysis_(analysis), rng_(options.seed) {
    values_.resize(program_.arrays.size());
    for (std::size_t a = 0; a < program_.arrays.size(); ++a) {
      if (!program_.arrays[a].has_mapping) continue;
      runtime::require_stepped_weights(program_.arrays[a].shape);
      values_[a].assign(
          static_cast<std::size_t>(program_.arrays[a].shape.total()), 0.0);
    }
    report_.ranks = runtime::machine_ranks(program, options);
    report_.backend = "seq";
    report_.threads = 1;
  }

  runtime::RunReport run() {
    const auto start = std::chrono::steady_clock::now();
    walk();
    report_.exec_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return report_;
  }

 private:
  void walk() {
    int node = analysis_.cfg.entry();
    std::map<int, Extent> loop_trips;
    while (true) {
      const ir::CfgNode& n = analysis_.cfg.node(node);
      int next = n.succs.empty() ? -1 : n.succs[0];
      switch (n.kind) {
        case CfgKind::Exit:
          return;
        case CfgKind::Plain:
          if (n.stmt == nullptr) break;
          if (const auto* ref = std::get_if<ir::RefStmt>(&n.stmt->node)) {
            for (const ArrayId a : ref->reads) read(a);
            for (const ArrayId a : ref->writes) write(a);
            for (const ArrayId a : ref->defines) write(a);
          } else if (const auto* live =
                         std::get_if<ir::LiveRegionStmt>(&n.stmt->node)) {
            live_region(*live);
          } else if (const auto* kill =
                         std::get_if<ir::KillStmt>(&n.stmt->node)) {
            if (mapped(kill->array)) std::ranges::fill(array(kill->array), 0.0);
          }
          break;
        case CfgKind::Branch: {
          const auto& ifs = std::get<ir::IfStmt>(n.stmt->node);
          for (const ArrayId a : ifs.cond_reads) read(a);
          next = (rng_() & 1u) != 0 ? n.succs[0] : n.succs[1];
          break;
        }
        case CfgKind::LoopHead: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          if (!loop.may_zero_trip) break;
          auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
          if (it->second > 0) {
            --it->second;  // enter the body
          } else {
            loop_trips.erase(it);
            next = n.succs.size() > 1 ? n.succs[1] : n.succs[0];
          }
          break;
        }
        case CfgKind::LoopLatch: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
          if (inserted) --it->second;  // the first trip just completed
          if (it->second > 0) {
            --it->second;  // back edge
          } else {
            loop_trips.erase(it);
            next = n.succs[1];
          }
          break;
        }
        case CfgKind::Call: {
          const auto& call = std::get<ir::CallStmt>(n.stmt->node);
          const auto& itf = program_.interface(call.interface_id);
          for (std::size_t i = 0; i < call.args.size(); ++i) {
            const ArrayId a = call.args[i];
            const ir::Intent intent = itf.dummies[i].intent;
            if (intent != ir::Intent::Out) read(a);
            if (intent != ir::Intent::In) write(a);
          }
          break;
        }
        default:
          break;
      }
      HPFC_ASSERT_MSG(next >= 0, "control fell off the CFG");
      node = next;
    }
  }

  [[nodiscard]] bool mapped(ArrayId a) const {
    return program_.array(a).has_mapping;
  }

  std::vector<double>& array(ArrayId a) {
    return values_[static_cast<std::size_t>(a)];
  }

  void read(ArrayId a) {
    if (!mapped(a)) return;
    ++report_.reads;
    const auto& values = array(a);
    report_.signature += runtime::fold(values.data(), 0, 1,
                                       static_cast<Extent>(values.size()));
  }

  void write(ArrayId a) {
    if (!mapped(a)) return;
    ++report_.writes;
    const std::uint64_t counter = ++write_counter_;
    auto& values = array(a);
    runtime::stamp(values.data(), 0, 1, static_cast<Extent>(values.size()),
                   counter);
  }

  /// Zeroes every element outside the region, one row of the innermost
  /// dimension at a time: a row whose outer coordinates leave the region
  /// is zeroed whole, any other keeps only [lo, hi) of its columns.
  void live_region(const ir::LiveRegionStmt& live) {
    if (!mapped(live.array)) return;
    const mapping::Shape& shape = program_.array(live.array).shape;
    const int dims = shape.rank();
    auto& values = array(live.array);
    if (values.empty()) return;
    const auto inner = static_cast<std::size_t>(dims - 1);
    const Extent row = shape.extent(dims - 1);
    const auto [lo, hi] = live.region[inner];
    const Extent keep_lo = std::clamp<Extent>(lo, 0, row);
    const Extent keep_hi = std::clamp<Extent>(hi, keep_lo, row);
    mapping::IndexVec outer(inner, 0);
    for (auto it = values.begin(); it != values.end(); it += row) {
      bool inside = true;
      for (std::size_t d = 0; d < inner && inside; ++d)
        inside = outer[d] >= live.region[d].first &&
                 outer[d] < live.region[d].second;
      if (inside) {
        std::fill(it, it + keep_lo, 0.0);
        std::fill(it + keep_hi, it + row, 0.0);
      } else {
        std::fill(it, it + row, 0.0);
      }
      for (std::size_t d = inner; d-- > 0;) {
        if (++outer[d] < shape.extent(static_cast<int>(d))) break;
        outer[d] = 0;
      }
    }
  }

  const ir::Program& program_;
  const remap::Analysis& analysis_;
  std::mt19937 rng_;
  runtime::RunReport report_;
  std::vector<std::vector<double>> values_;
  std::uint64_t write_counter_ = 0;
};

}  // namespace

runtime::RunReport run_reference(const ir::Program& program,
                                 const remap::Analysis& analysis,
                                 const runtime::RunOptions& options) {
  return Reference(program, analysis, options).run();
}

}  // namespace hpfc::testing
