#include "hpf/builder.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace hpfc::hpf {

using ir::ArrayId;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Distribution;
using mapping::Shape;

ProgramBuilder::ProgramBuilder(std::string name) {
  program_.name = std::move(name);
  blocks_.push_back(&program_.body);
}

void ProgramBuilder::fail(DiagId id, const std::string& message) {
  builder_diags_.error(id, next_loc_, message);
  failed_ = true;
}

int ProgramBuilder::procs(const std::string& name, Shape shape) {
  if (program_.find_procs(name) >= 0) {
    fail(DiagId::Redefinition, "processors " + name + " already declared");
    return -1;
  }
  program_.procs.push_back({name, std::move(shape)});
  return static_cast<int>(program_.procs.size()) - 1;
}

int ProgramBuilder::tmpl(const std::string& name, Shape shape) {
  if (program_.find_template(name) >= 0) {
    fail(DiagId::Redefinition, "template " + name + " already declared");
    return -1;
  }
  ir::TemplateDecl decl;
  decl.name = name;
  decl.shape = std::move(shape);
  program_.templates.push_back(std::move(decl));
  return static_cast<int>(program_.templates.size()) - 1;
}

Distribution ProgramBuilder::make_dist(std::vector<DistFormat> formats,
                                       const std::string& procs_name,
                                       int template_rank) {
  Distribution dist;
  dist.per_dim = std::move(formats);
  if (static_cast<int>(dist.per_dim.size()) != template_rank) {
    fail(DiagId::BadMapping, "distribution format count does not match rank");
  }
  const int p = need_procs(procs_name);
  if (p >= 0) dist.proc_shape = program_.procs[static_cast<std::size_t>(p)].shape;
  return dist;
}

void ProgramBuilder::distribute_template(const std::string& tmpl_name,
                                         std::vector<DistFormat> formats,
                                         const std::string& procs_name) {
  const int t = need_template(tmpl_name);
  if (t < 0) return;
  auto& decl = program_.templates[static_cast<std::size_t>(t)];
  decl.initial_dist =
      make_dist(std::move(formats), procs_name, decl.shape.rank());
  decl.has_initial_dist = true;
}

ArrayId ProgramBuilder::array(const std::string& name, Shape shape) {
  if (program_.find_array(name) >= 0) {
    fail(DiagId::Redefinition, "array " + name + " already declared");
    return -1;
  }
  if (shape.rank() == 0) {
    fail(DiagId::BadMapping, "array " + name + " has no dimensions");
    return -1;
  }
  ir::ArrayDecl decl;
  decl.name = name;
  decl.shape = std::move(shape);
  program_.arrays.push_back(std::move(decl));
  return static_cast<ArrayId>(program_.arrays.size()) - 1;
}

ArrayId ProgramBuilder::dummy(const std::string& name, Shape shape,
                              ir::Intent intent) {
  const ArrayId id = array(name, std::move(shape));
  if (id >= 0) {
    program_.arrays[static_cast<std::size_t>(id)].is_dummy = true;
    program_.arrays[static_cast<std::size_t>(id)].intent = intent;
  }
  return id;
}

void ProgramBuilder::align(const std::string& array_name,
                           const std::string& tmpl_name, Alignment align) {
  const ArrayId a = need_array(array_name);
  const int t = need_template(tmpl_name);
  if (a < 0 || t < 0) return;
  auto& decl = program_.arrays[static_cast<std::size_t>(a)];
  align.array_rank = decl.shape.rank();
  decl.template_id = t;
  decl.align = std::move(align);
  decl.has_mapping = true;
}

void ProgramBuilder::align_with_array(const std::string& array_name,
                                      const std::string& other_array,
                                      Alignment inner) {
  const ArrayId a = need_array(array_name);
  const ArrayId b = need_array(other_array);
  if (a < 0 || b < 0) return;
  const auto& other = program_.arrays[static_cast<std::size_t>(b)];
  if (!other.has_mapping) {
    fail(DiagId::BadMapping,
         "align " + array_name + " with unmapped array " + other_array);
    return;
  }
  auto& decl = program_.arrays[static_cast<std::size_t>(a)];
  if (inner.per_template_dim.empty())
    inner = Alignment::identity(decl.shape.rank());
  inner.array_rank = decl.shape.rank();
  decl.template_id = other.template_id;
  decl.align = inner.compose_onto(other.align);
  decl.has_mapping = true;
}

void ProgramBuilder::distribute_array(const std::string& array_name,
                                      std::vector<DistFormat> formats,
                                      const std::string& procs_name) {
  const ArrayId a = need_array(array_name);
  if (a < 0) return;
  auto& decl = program_.arrays[static_cast<std::size_t>(a)];
  const int t = tmpl("$" + array_name, decl.shape);
  if (t < 0) return;
  program_.templates[static_cast<std::size_t>(t)].implicit = true;
  distribute_template("$" + array_name, std::move(formats), procs_name);
  decl.template_id = t;
  decl.align = Alignment::identity(decl.shape.rank());
  decl.has_mapping = true;
}

void ProgramBuilder::interface(const std::string& name) {
  if (program_.find_interface(name) >= 0) {
    fail(DiagId::Redefinition, "interface " + name + " already declared");
    return;
  }
  program_.interfaces.push_back({name, {}});
}

void ProgramBuilder::interface_dummy(const std::string& name, Shape shape,
                                     ir::Intent intent,
                                     std::vector<DistFormat> formats,
                                     const std::string& procs_name,
                                     Alignment align) {
  if (program_.interfaces.empty()) {
    fail(DiagId::BadDirective, "interface_dummy outside an interface");
    return;
  }
  if (shape.rank() == 0) {
    fail(DiagId::BadMapping, "dummy " + name + " has no dimensions");
    return;
  }
  ir::DummySpec spec;
  spec.name = name;
  spec.intent = intent;
  if (align.per_template_dim.empty())
    align = Alignment::identity(shape.rank());
  align.array_rank = shape.rank();
  spec.required.align = std::move(align);
  spec.required.template_shape = shape;
  // Interface dummies carry their own implicit template; a unique negative
  // id family keyed by (interface, position) distinguishes it from the
  // caller's templates.
  spec.required.template_id =
      -1000 - static_cast<int>(program_.interfaces.size()) * 100 -
      static_cast<int>(program_.interfaces.back().dummies.size());
  spec.required.dist =
      make_dist(std::move(formats), procs_name, shape.rank());
  spec.shape = std::move(shape);
  program_.interfaces.back().dummies.push_back(std::move(spec));
}

void ProgramBuilder::push(ir::StmtNode node, std::string label) {
  blocks_.back()->push_back(
      ir::make_stmt(std::move(node), next_loc_, std::move(label)));
}

void ProgramBuilder::ref(std::vector<std::string> reads,
                         std::vector<std::string> writes,
                         std::vector<std::string> defines, std::string label) {
  ir::RefStmt node;
  node.reads = need_arrays(reads);
  node.writes = need_arrays(writes);
  node.defines = need_arrays(defines);
  push(std::move(node), std::move(label));
}

void ProgramBuilder::use(std::vector<std::string> arrays, std::string label) {
  ref(std::move(arrays), {}, {}, std::move(label));
}

void ProgramBuilder::def(std::vector<std::string> arrays, std::string label) {
  ref({}, std::move(arrays), {}, std::move(label));
}

void ProgramBuilder::full_def(std::vector<std::string> arrays,
                              std::string label) {
  ref({}, {}, std::move(arrays), std::move(label));
}

void ProgramBuilder::realign(const std::string& array_name,
                             const std::string& tmpl_name, Alignment align,
                             std::string label) {
  ir::RealignStmt node;
  node.array = need_array(array_name);
  node.target_template = need_template(tmpl_name);
  if (node.array >= 0) {
    align.array_rank =
        program_.arrays[static_cast<std::size_t>(node.array)].shape.rank();
    program_.arrays[static_cast<std::size_t>(node.array)].dynamic = true;
  }
  node.align = std::move(align);
  push(std::move(node), std::move(label));
}

void ProgramBuilder::realign_with_array(const std::string& array_name,
                                        const std::string& other_array,
                                        Alignment inner, std::string label) {
  const ArrayId a = need_array(array_name);
  const ArrayId b = need_array(other_array);
  if (a < 0 || b < 0) return;
  const auto& other = program_.arrays[static_cast<std::size_t>(b)];
  if (!other.has_mapping) {
    fail(DiagId::BadMapping,
         "realign " + array_name + " with unmapped array " + other_array);
    return;
  }
  auto& decl = program_.arrays[static_cast<std::size_t>(a)];
  if (inner.per_template_dim.empty())
    inner = Alignment::identity(decl.shape.rank());
  inner.array_rank = decl.shape.rank();
  ir::RealignStmt node;
  node.array = a;
  node.target_template = other.template_id;
  node.align = inner.compose_onto(other.align);
  decl.dynamic = true;
  push(std::move(node), std::move(label));
}

void ProgramBuilder::redistribute(const std::string& target,
                                  std::vector<DistFormat> formats,
                                  const std::string& procs_name,
                                  std::string label) {
  int t = program_.find_template(target);
  if (t < 0) {
    // A directly distributed array names its implicit template.
    const ArrayId a = program_.find_array(target);
    if (a >= 0) {
      t = program_.find_template("$" + target);
      if (t < 0) {
        fail(DiagId::BadDirective,
             "redistribute of " + target +
                 " which is aligned, not directly distributed; "
                 "redistribute its template instead");
        return;
      }
    }
  }
  if (t < 0) {
    fail(DiagId::UnknownSymbol, "redistribute of unknown target " + target);
    return;
  }
  auto& tdecl = program_.templates[static_cast<std::size_t>(t)];
  ir::RedistributeStmt node;
  node.target_template = t;
  std::string procs_to_use = procs_name;
  if (procs_to_use.empty() && tdecl.has_initial_dist) {
    // Reuse the processor arrangement of the initial distribution.
    node.dist.per_dim = std::move(formats);
    node.dist.proc_shape = tdecl.initial_dist.proc_shape;
    if (static_cast<int>(node.dist.per_dim.size()) != tdecl.shape.rank())
      fail(DiagId::BadMapping,
           "distribution format count does not match rank");
    push(std::move(node), std::move(label));
    return;
  }
  node.dist = make_dist(std::move(formats), procs_to_use, tdecl.shape.rank());
  push(std::move(node), std::move(label));
}

void ProgramBuilder::begin_if(std::vector<std::string> cond_reads,
                              std::string label) {
  ir::IfStmt node;
  node.cond_reads = need_arrays(cond_reads);
  push(std::move(node), std::move(label));
  auto& stmt = *blocks_.back()->back();
  auto& if_node = std::get<ir::IfStmt>(stmt.node);
  open_ifs_.push_back(&if_node);
  blocks_.push_back(&if_node.then_body);
}

void ProgramBuilder::begin_else() {
  if (open_ifs_.empty()) {
    fail(DiagId::BadDirective, "else outside of if");
    return;
  }
  blocks_.pop_back();
  blocks_.push_back(&open_ifs_.back()->else_body);
}

void ProgramBuilder::end_if() {
  if (open_ifs_.empty()) {
    fail(DiagId::BadDirective, "endif outside of if");
    return;
  }
  open_ifs_.pop_back();
  blocks_.pop_back();
}

void ProgramBuilder::begin_loop(mapping::Extent trip_count, bool may_zero_trip,
                                std::string label) {
  ir::LoopStmt node;
  node.trip_count = trip_count;
  node.may_zero_trip = may_zero_trip;
  push(std::move(node), std::move(label));
  auto& stmt = *blocks_.back()->back();
  auto& loop_node = std::get<ir::LoopStmt>(stmt.node);
  blocks_.push_back(&loop_node.body);
}

void ProgramBuilder::end_loop() {
  if (blocks_.size() <= 1) {
    fail(DiagId::BadDirective, "endloop outside of loop");
    return;
  }
  blocks_.pop_back();
}

void ProgramBuilder::call(const std::string& callee,
                          std::vector<std::string> args, std::string label) {
  ir::CallStmt node;
  node.callee = callee;
  node.interface_id = program_.find_interface(callee);
  node.args = need_arrays(args);
  push(std::move(node), std::move(label));
}

void ProgramBuilder::kill(const std::string& array_name, std::string label) {
  ir::KillStmt node;
  node.array = need_array(array_name);
  push(std::move(node), std::move(label));
}

void ProgramBuilder::live_region(const std::string& array_name,
                                 ir::Region region, std::string label) {
  ir::LiveRegionStmt node;
  node.array = need_array(array_name);
  node.region = std::move(region);
  push(std::move(node), std::move(label));
}

ArrayId ProgramBuilder::need_array(const std::string& name) {
  const ArrayId id = program_.find_array(name);
  if (id < 0) fail(DiagId::UnknownSymbol, "unknown array " + name);
  return id;
}

int ProgramBuilder::need_template(const std::string& name) {
  const int id = program_.find_template(name);
  if (id < 0) fail(DiagId::UnknownSymbol, "unknown template " + name);
  return id;
}

int ProgramBuilder::need_procs(const std::string& name) {
  const int id = program_.find_procs(name);
  if (id < 0) fail(DiagId::UnknownSymbol, "unknown processors " + name);
  return id;
}

std::vector<ArrayId> ProgramBuilder::need_arrays(
    const std::vector<std::string>& names) {
  std::vector<ArrayId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) {
    const ArrayId id = need_array(n);
    if (id >= 0) ids.push_back(id);
  }
  return ids;
}

ir::Program ProgramBuilder::finish(DiagnosticEngine& diags) {
  if (blocks_.size() != 1 || !open_ifs_.empty())
    fail(DiagId::BadDirective, "unterminated if/loop block");
  for (const auto& d : builder_diags_.all())
    diags.report(d.severity, d.id, d.loc, d.message);
  ir::Program result = std::move(program_);
  if (!failed_) result.finalize(diags);
  return result;
}

}  // namespace hpfc::hpf
