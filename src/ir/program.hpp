// A Program is one HPF-lite routine: declarations plus a structured body.
// It corresponds to the unit the paper compiles (a subroutine with dummy
// arguments, local arrays and explicit interfaces for its callees).
#pragma once

#include <string>
#include <vector>

#include "ir/stmt.hpp"
#include "ir/symbols.hpp"

namespace hpfc::ir {

class Program {
 public:
  std::string name = "main";
  std::vector<ProcsDecl> procs;
  std::vector<TemplateDecl> templates;
  std::vector<ArrayDecl> arrays;
  std::vector<InterfaceDecl> interfaces;
  Block body;

  [[nodiscard]] int find_procs(const std::string& name) const;
  [[nodiscard]] int find_template(const std::string& name) const;
  [[nodiscard]] ArrayId find_array(const std::string& name) const;
  [[nodiscard]] InterfaceId find_interface(const std::string& name) const;

  [[nodiscard]] const ArrayDecl& array(ArrayId id) const;
  [[nodiscard]] const TemplateDecl& template_decl(TemplateId id) const;
  [[nodiscard]] const InterfaceDecl& interface(InterfaceId id) const;

  /// The initial two-level mapping of an array (alignment + its template's
  /// initial distribution).
  [[nodiscard]] mapping::FullMapping initial_mapping(ArrayId id) const;

  /// Distributed arrays, i.e. those with a mapping (analysis scope).
  [[nodiscard]] std::vector<ArrayId> mapped_arrays() const;

  /// Assigns statement ids (pre-order) and checks basic well-formedness
  /// (symbols resolve, shapes are consistent, every used template has an
  /// initial distribution, call arities match interfaces). Reports problems
  /// to `diags`; returns true when no error was found.
  bool finalize(DiagnosticEngine& diags);

  [[nodiscard]] int stmt_count() const { return stmt_count_; }
  /// Statements indexed by id (valid after finalize()).
  [[nodiscard]] const std::vector<const Stmt*>& statements() const {
    return stmts_;
  }

  /// Multi-line listing of the routine (declarations + body).
  [[nodiscard]] std::string to_string() const;

 private:
  int stmt_count_ = 0;
  std::vector<const Stmt*> stmts_;
};

}  // namespace hpfc::ir
