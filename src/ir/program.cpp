#include "ir/program.hpp"

#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::ir {

const char* to_string(Intent intent) {
  switch (intent) {
    case Intent::In: return "in";
    case Intent::Out: return "out";
    case Intent::InOut: return "inout";
  }
  return "?";
}

namespace {

template <class Decls>
int find_by_name(const Decls& decls, const std::string& name) {
  for (std::size_t i = 0; i < decls.size(); ++i)
    if (decls[i].name == name) return static_cast<int>(i);
  return -1;
}

}  // namespace

int Program::find_procs(const std::string& name) const {
  return find_by_name(procs, name);
}
int Program::find_template(const std::string& name) const {
  return find_by_name(templates, name);
}
ArrayId Program::find_array(const std::string& name) const {
  return find_by_name(arrays, name);
}
InterfaceId Program::find_interface(const std::string& name) const {
  return find_by_name(interfaces, name);
}

const ArrayDecl& Program::array(ArrayId id) const {
  HPFC_ASSERT(id >= 0 && id < static_cast<int>(arrays.size()));
  return arrays[static_cast<std::size_t>(id)];
}
const TemplateDecl& Program::template_decl(TemplateId id) const {
  HPFC_ASSERT(id >= 0 && id < static_cast<int>(templates.size()));
  return templates[static_cast<std::size_t>(id)];
}
const InterfaceDecl& Program::interface(InterfaceId id) const {
  HPFC_ASSERT(id >= 0 && id < static_cast<int>(interfaces.size()));
  return interfaces[static_cast<std::size_t>(id)];
}

mapping::FullMapping Program::initial_mapping(ArrayId id) const {
  const ArrayDecl& decl = array(id);
  HPFC_ASSERT_MSG(decl.has_mapping, "array has no mapping");
  const TemplateDecl& tmpl = template_decl(decl.template_id);
  HPFC_ASSERT_MSG(tmpl.has_initial_dist, "template has no distribution");
  mapping::FullMapping fm;
  fm.template_id = decl.template_id;
  fm.template_shape = tmpl.shape;
  fm.align = decl.align;
  fm.dist = tmpl.initial_dist;
  return fm;
}

std::vector<ArrayId> Program::mapped_arrays() const {
  std::vector<ArrayId> result;
  for (std::size_t i = 0; i < arrays.size(); ++i)
    if (arrays[i].has_mapping) result.push_back(static_cast<ArrayId>(i));
  return result;
}

bool Program::finalize(DiagnosticEngine& diags) {
  stmt_count_ = 0;
  stmts_.clear();
  for_each_stmt(body, [this](Stmt& s) {
    s.id = stmt_count_++;
    stmts_.push_back(&s);
  });

  const auto check_array = [&](ArrayId id, SourceLoc loc) {
    if (id < 0 || id >= static_cast<int>(arrays.size())) {
      diags.error(DiagId::UnknownSymbol, loc, "unknown array id");
      return false;
    }
    return true;
  };

  // Declarations.
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const ArrayDecl& a = arrays[i];
    if (!a.has_mapping) continue;
    if (a.template_id < 0 ||
        a.template_id >= static_cast<int>(templates.size())) {
      diags.error(DiagId::UnknownSymbol, {},
                  "array " + a.name + " aligned to unknown template");
      continue;
    }
    const TemplateDecl& t = template_decl(a.template_id);
    if (!t.has_initial_dist) {
      diags.error(DiagId::BadMapping, {},
                  "template " + t.name + " (used by " + a.name +
                      ") has no initial distribution");
      continue;
    }
    const mapping::FullMapping fm = initial_mapping(static_cast<ArrayId>(i));
    if (std::string err = fm.validate(a.shape); !err.empty())
      diags.error(DiagId::BadMapping, {}, a.name + ": " + err);
  }

  // Statements.
  for_each_stmt(body, [&](const Stmt& s) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, RefStmt>) {
            for (const ArrayId a : node.reads) check_array(a, s.loc);
            for (const ArrayId a : node.writes) check_array(a, s.loc);
            for (const ArrayId a : node.defines) check_array(a, s.loc);
          } else if constexpr (std::is_same_v<T, RealignStmt>) {
            if (!check_array(node.array, s.loc)) return;
            if (node.target_template < 0 ||
                node.target_template >= static_cast<int>(templates.size()))
              diags.error(DiagId::UnknownSymbol, s.loc,
                          "realign onto unknown template");
          } else if constexpr (std::is_same_v<T, RedistributeStmt>) {
            if (node.target_template < 0 ||
                node.target_template >= static_cast<int>(templates.size())) {
              diags.error(DiagId::UnknownSymbol, s.loc,
                          "redistribute of unknown template");
              return;
            }
            const TemplateDecl& t = template_decl(node.target_template);
            if (std::string err = node.dist.validate(t.shape); !err.empty())
              diags.error(DiagId::BadMapping, s.loc, t.name + ": " + err);
          } else if constexpr (std::is_same_v<T, CallStmt>) {
            if (node.interface_id < 0 ||
                node.interface_id >= static_cast<int>(interfaces.size())) {
              diags.error(
                  DiagId::MissingInterface, s.loc,
                  "call to " + node.callee +
                      " without an explicit interface (restriction 2)");
              return;
            }
            const InterfaceDecl& itf = interface(node.interface_id);
            if (itf.dummies.size() != node.args.size()) {
              std::ostringstream os;
              os << "call to " << node.callee << " passes " << node.args.size()
                 << " array argument(s), interface declares "
                 << itf.dummies.size();
              diags.error(DiagId::BadArgumentCount, s.loc, os.str());
              return;
            }
            for (std::size_t i = 0; i < node.args.size(); ++i) {
              if (!check_array(node.args[i], s.loc)) continue;
              const ArrayDecl& actual = array(node.args[i]);
              const DummySpec& dummy = itf.dummies[i];
              if (!(actual.shape == dummy.shape)) {
                diags.error(DiagId::BadMapping, s.loc,
                            "argument " + actual.name + " of " + node.callee +
                                ": shape " + actual.shape.to_string() +
                                " does not match dummy " + dummy.name +
                                dummy.shape.to_string());
              }
            }
          } else if constexpr (std::is_same_v<T, KillStmt>) {
            check_array(node.array, s.loc);
          } else if constexpr (std::is_same_v<T, LiveRegionStmt>) {
            if (!check_array(node.array, s.loc)) return;
            const ArrayDecl& decl = array(node.array);
            if (static_cast<int>(node.region.size()) != decl.shape.rank()) {
              diags.error(DiagId::BadDirective, s.loc,
                          "live region rank does not match array " +
                              decl.name);
              return;
            }
            for (int d = 0; d < decl.shape.rank(); ++d) {
              const auto& [lo, hi] = node.region[static_cast<std::size_t>(d)];
              if (lo < 0 || hi > decl.shape.extent(d) || lo >= hi) {
                diags.error(DiagId::BadDirective, s.loc,
                            "live region bounds out of range for " +
                                decl.name);
                return;
              }
            }
          }
        },
        s.node);
  });

  return !diags.has_errors();
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "routine " << name << "\n";
  for (const auto& p : procs)
    os << "  processors " << p.name << p.shape.to_string() << "\n";
  for (const auto& t : templates) {
    os << "  template " << t.name << t.shape.to_string();
    if (t.has_initial_dist) os << " distribute" << t.initial_dist.to_string();
    if (t.implicit) os << "  ! implicit";
    os << "\n";
  }
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const ArrayDecl& a = arrays[i];
    os << "  " << (a.is_dummy ? "dummy" : "array") << " " << a.name
       << a.shape.to_string();
    if (a.is_dummy) os << " intent(" << ir::to_string(a.intent) << ")";
    if (a.has_mapping)
      os << " align" << a.align.to_string() << " with "
         << template_decl(a.template_id).name;
    os << "\n";
  }

  int depth = 1;
  const std::function<void(const Block&)> print_block = [&](const Block& b) {
    for (const auto& sp : b) {
      const Stmt& s = *sp;
      const std::string pad(static_cast<std::size_t>(depth * 2), ' ');
      os << pad;
      if (!s.label.empty()) os << "[" << s.label << "] ";
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, RefStmt>) {
              os << "ref";
              if (!node.reads.empty()) {
                os << " read(";
                for (std::size_t k = 0; k < node.reads.size(); ++k)
                  os << (k ? "," : "") << array(node.reads[k]).name;
                os << ")";
              }
              if (!node.writes.empty()) {
                os << " write(";
                for (std::size_t k = 0; k < node.writes.size(); ++k)
                  os << (k ? "," : "") << array(node.writes[k]).name;
                os << ")";
              }
              if (!node.defines.empty()) {
                os << " define(";
                for (std::size_t k = 0; k < node.defines.size(); ++k)
                  os << (k ? "," : "") << array(node.defines[k]).name;
                os << ")";
              }
              os << "\n";
            } else if constexpr (std::is_same_v<T, RealignStmt>) {
              os << "realign " << array(node.array).name << " with "
                 << template_decl(node.target_template).name
                 << node.align.to_string() << "\n";
            } else if constexpr (std::is_same_v<T, RedistributeStmt>) {
              os << "redistribute " << template_decl(node.target_template).name
                 << node.dist.to_string() << "\n";
            } else if constexpr (std::is_same_v<T, IfStmt>) {
              os << "if\n";
              ++depth;
              print_block(node.then_body);
              --depth;
              if (!node.else_body.empty()) {
                os << pad << "else\n";
                ++depth;
                print_block(node.else_body);
                --depth;
              }
              os << pad << "endif\n";
            } else if constexpr (std::is_same_v<T, LoopStmt>) {
              os << "loop trip=" << node.trip_count
                 << (node.may_zero_trip ? "" : " nonzero") << "\n";
              ++depth;
              print_block(node.body);
              --depth;
              os << pad << "endloop\n";
            } else if constexpr (std::is_same_v<T, CallStmt>) {
              os << "call " << node.callee << "(";
              for (std::size_t k = 0; k < node.args.size(); ++k)
                os << (k ? "," : "") << array(node.args[k]).name;
              os << ")\n";
            } else if constexpr (std::is_same_v<T, KillStmt>) {
              os << "kill " << array(node.array).name << "\n";
            } else if constexpr (std::is_same_v<T, LiveRegionStmt>) {
              os << "live " << array(node.array).name << "(";
              for (std::size_t d = 0; d < node.region.size(); ++d) {
                if (d > 0) os << ",";
                os << node.region[d].first << ":" << node.region[d].second;
              }
              os << ")\n";
            }
          },
          s.node);
    }
  };
  print_block(body);
  os << "end\n";
  return os.str();
}

}  // namespace hpfc::ir
