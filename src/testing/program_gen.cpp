#include "testing/program_gen.hpp"

#include <random>

#include "hpf/builder.hpp"
#include "remap/build.hpp"

namespace hpfc::testing {

namespace {

using hpf::ProgramBuilder;
using mapping::DistFormat;

class Generator {
 public:
  explicit Generator(const GenConfig& config)
      : config_(config), rng_(config.seed) {}

  ir::Program build() {
    ProgramBuilder b("random");
    b.procs("P", mapping::Shape{4});

    // A shared template with two aligned 1-D arrays, one directly
    // distributed 1-D array, and optionally a 2-D array.
    const mapping::Extent n = 24 + static_cast<mapping::Extent>(pick(5)) * 8;
    b.tmpl("T", mapping::Shape{n});
    b.distribute_template("T", {DistFormat::block()}, "P");
    b.array("A", mapping::Shape{n});
    b.align("A", "T", mapping::Alignment::identity(1));
    b.array("B", mapping::Shape{n});
    b.align("B", "T", mapping::Alignment::identity(1));
    b.array("C", mapping::Shape{n});
    b.distribute_array("C", {DistFormat::cyclic()}, "P");
    names_ = {"A", "B", "C"};
    extent_ = n;

    if (config_.two_dimensional) {
      b.array("D", mapping::Shape{16, 12});
      b.distribute_array("D", {DistFormat::block(), DistFormat::collapsed()},
                         "P");
      names_.push_back("D");
    }

    if (config_.with_calls) {
      b.interface("foo");
      b.interface_dummy("X", mapping::Shape{n}, ir::Intent::InOut,
                        {DistFormat::cyclic(2)}, "P");
      b.interface("peek");
      b.interface_dummy("X", mapping::Shape{n}, ir::Intent::In,
                        {DistFormat::block()}, "P");
    }

    emit_block(b, config_.statements, 0);
    // Final reads keep the tail of the program live.
    b.use({names_[pick(names_.size())]});

    DiagnosticEngine diags;
    return b.finish(diags);
  }

 private:
  std::size_t pick(std::size_t n) { return rng_() % n; }
  bool chance(int percent) { return static_cast<int>(rng_() % 100) < percent; }

  std::string one_dim_array() {
    static const char* kOneDim[] = {"A", "B", "C"};
    return kOneDim[pick(3)];
  }

  DistFormat random_format() {
    switch (pick(4)) {
      case 0: return DistFormat::block();
      case 1: return DistFormat::cyclic();
      case 2: return DistFormat::cyclic(2);
      default: return DistFormat::cyclic(3);
    }
  }

  mapping::Alignment random_alignment() {
    // Identity, shifted (within bounds thanks to the template = array
    // extent? shift needs room; use reversal instead), or reversed.
    if (chance(50)) return mapping::Alignment::identity(1);
    mapping::Alignment a;
    a.array_rank = 1;
    a.per_template_dim = {
        mapping::AlignTarget::axis(0, -1, extent_ - 1)};  // i -> n-1-i
    return a;
  }

  void emit_block(ProgramBuilder& b, int budget, int depth) {
    for (int i = 0; i < budget; ++i) {
      const int kind = static_cast<int>(pick(12));
      switch (kind) {
        case 0:
        case 1:
          b.use({names_[pick(names_.size())]});
          break;
        case 2:
          b.def({names_[pick(names_.size())]});
          break;
        case 3:
          b.full_def({one_dim_array()});
          break;
        case 4:
          b.redistribute("T", {random_format()});
          break;
        case 5:
          b.redistribute("C", {random_format()});
          break;
        case 6:
          b.realign(one_dim_array(), "T", random_alignment());
          break;
        case 7:
          if (depth < config_.max_depth) {
            b.begin_if(chance(50) ? std::vector<std::string>{"B"}
                                  : std::vector<std::string>{});
            emit_block(b, budget / 3 + 1, depth + 1);
            if (chance(60)) {
              b.begin_else();
              emit_block(b, budget / 3 + 1, depth + 1);
            }
            b.end_if();
          } else {
            b.use({one_dim_array()});
          }
          break;
        case 8:
          if (depth < config_.max_depth) {
            b.begin_loop(1 + static_cast<mapping::Extent>(pick(3)),
                         chance(70));
            emit_block(b, budget / 3 + 1, depth + 1);
            b.end_loop();
          } else {
            b.def({one_dim_array()});
          }
          break;
        case 9:
          if (config_.with_calls) {
            b.call(chance(50) ? "foo" : "peek", {one_dim_array()});
          } else {
            b.use({one_dim_array()});
          }
          break;
        case 10:
          b.kill(one_dim_array());
          break;
        case 11: {
          // §4.3 live-region assertion over a random prefix of the array.
          const mapping::Extent hi =
              8 + static_cast<mapping::Extent>(pick(
                      static_cast<std::size_t>(extent_ - 8)));
          b.live_region(one_dim_array(), {{0, hi}});
          break;
        }
        default:
          break;
      }
    }
  }

  GenConfig config_;
  std::mt19937 rng_;
  std::vector<std::string> names_;
  mapping::Extent extent_ = 0;
};

}  // namespace

ir::Program generate(const GenConfig& config) {
  Generator gen(config);
  return gen.build();
}

std::optional<std::pair<ir::Program, unsigned>> generate_compilable(
    GenConfig config, int attempts) {
  for (int i = 0; i < attempts; ++i) {
    ir::Program program = generate(config);
    DiagnosticEngine diags;
    const remap::Analysis analysis = remap::analyze(program, diags);
    if (analysis.ok) return std::pair{std::move(program), config.seed};
    ++config.seed;
  }
  return std::nullopt;
}

}  // namespace hpfc::testing
