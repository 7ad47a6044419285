// ProgramBuilder: the programmatic front end for HPF-lite routines. It
// resolves the syntactic sugar the paper's examples rely on — direct
// distribution of arrays (implicit templates), ALIGN A WITH B chains
// (alignment composition), default identity alignments — and produces an
// ir::Program ready for analysis. The textual parser (hpf/parser.hpp) is a
// thin layer over this builder.
#pragma once

#include <string>
#include <vector>

#include "ir/program.hpp"
#include "support/diagnostics.hpp"

namespace hpfc::hpf {

class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  // ---- declarations -------------------------------------------------
  int procs(const std::string& name, mapping::Shape shape);
  int tmpl(const std::string& name, mapping::Shape shape);

  /// DISTRIBUTE of a template (initial distribution).
  void distribute_template(const std::string& tmpl_name,
                           std::vector<mapping::DistFormat> formats,
                           const std::string& procs_name);

  /// Declares an array (a dummy argument with dummy()). Every array has at
  /// least one dimension: an empty shape is reported as BadMapping.
  ir::ArrayId array(const std::string& name, mapping::Shape shape);
  ir::ArrayId dummy(const std::string& name, mapping::Shape shape,
                    ir::Intent intent);

  /// ALIGN array WITH template(targets).
  void align(const std::string& array_name, const std::string& tmpl_name,
             mapping::Alignment align);
  /// ALIGN array WITH other-array(targets): composes onto the other
  /// array's template. Identity targets when `align` is empty.
  void align_with_array(const std::string& array_name,
                        const std::string& other_array,
                        mapping::Alignment align = {});
  /// DISTRIBUTE array(formats) ONTO procs: direct distribution; creates the
  /// implicit template "$name" with an identity alignment.
  void distribute_array(const std::string& array_name,
                        std::vector<mapping::DistFormat> formats,
                        const std::string& procs_name);

  /// Starts an interface declaration; add dummies with interface_dummy().
  void interface(const std::string& name);
  void interface_dummy(const std::string& name, mapping::Shape shape,
                       ir::Intent intent,
                       std::vector<mapping::DistFormat> formats,
                       const std::string& procs_name,
                       mapping::Alignment align = {});

  // ---- statements ----------------------------------------------------
  void ref(std::vector<std::string> reads, std::vector<std::string> writes,
           std::vector<std::string> defines = {}, std::string label = {});
  void use(std::vector<std::string> arrays, std::string label = {});
  void def(std::vector<std::string> arrays, std::string label = {});
  /// Full redefinition (effect D).
  void full_def(std::vector<std::string> arrays, std::string label = {});

  void realign(const std::string& array_name, const std::string& tmpl_name,
               mapping::Alignment align, std::string label = {});
  void realign_with_array(const std::string& array_name,
                          const std::string& other_array,
                          mapping::Alignment align = {},
                          std::string label = {});
  /// REDISTRIBUTE template-or-directly-distributed-array.
  void redistribute(const std::string& target,
                    std::vector<mapping::DistFormat> formats,
                    const std::string& procs_name = {},
                    std::string label = {});

  void begin_if(std::vector<std::string> cond_reads = {},
                std::string label = {});
  void begin_else();
  void end_if();
  void begin_loop(mapping::Extent trip_count, bool may_zero_trip = true,
                  std::string label = {});
  void end_loop();

  void call(const std::string& callee, std::vector<std::string> args,
            std::string label = {});
  void kill(const std::string& array_name, std::string label = {});
  /// §4.3 array-region refinement: only `region` of the array is live.
  void live_region(const std::string& array_name, ir::Region region,
                   std::string label = {});

  /// Finalizes and returns the program. Also runs ir checks. Builder
  /// errors (unknown names, misnested blocks) are reported to `diags`.
  ir::Program finish(DiagnosticEngine& diags);

  [[nodiscard]] bool ok() const { return !failed_; }
  void set_next_loc(SourceLoc loc) { next_loc_ = loc; }

 private:
  ir::ArrayId need_array(const std::string& name);
  int need_template(const std::string& name);
  int need_procs(const std::string& name);
  std::vector<ir::ArrayId> need_arrays(const std::vector<std::string>& names);
  mapping::Distribution make_dist(std::vector<mapping::DistFormat> formats,
                                  const std::string& procs_name,
                                  int template_rank);
  void push(ir::StmtNode node, std::string label);
  void fail(DiagId id, const std::string& message);

  ir::Program program_;
  DiagnosticEngine builder_diags_;
  std::vector<ir::Block*> blocks_;
  /// If-statements whose else part is currently open.
  std::vector<ir::IfStmt*> open_ifs_;
  SourceLoc next_loc_;
  bool failed_ = false;
};

}  // namespace hpfc::hpf
