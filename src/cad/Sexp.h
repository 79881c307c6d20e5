//===-- cad/Sexp.h - S-expression serialization -----------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression serialization of CAD terms. The paper serializes models as
/// s-expressions (via Janestreet `@deriving`); this module provides the
/// equivalent reader/printer pair, plus the paper-style pretty printer used
/// in figures ("Translate (1, 2, 3, Unit)").
///
/// Syntax:
///   term  ::= atom | '(' head term* ')'
///   atom  ::= number            -- Float if it contains '.' 'e' 'E', else Int
///           | opname            -- a zero-arity operator (Unit, Nil, ...)
///           | boolop            -- Union/Diff/Inter as an OpRef value
///           | '?'ident          -- a pattern variable (rewrite patterns only)
///   head  ::= opname | 'Var' | 'External'
///
/// Examples:
///   (Union (Translate (Vec3 1.0 2.0 3.0) Unit) (Sphere))
///   (Fold Union Empty (Mapi (Fun (Var i) (Var c) ...) (Repeat Unit 5)))
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_CAD_SEXP_H
#define SHRINKRAY_CAD_SEXP_H

#include "cad/Term.h"

#include <optional>
#include <string>
#include <string_view>

namespace shrinkray {

/// Result of parsing: a term or a diagnostic.
struct ParseResult {
  TermPtr Value;      ///< non-null on success
  std::string Error;  ///< diagnostic on failure ("line:col: message" style)

  explicit operator bool() const { return Value != nullptr; }
};

/// Deepest nesting either source parser (parseSexp, scad::parseScad)
/// accepts. Both recurse once per level, so a deeper source fails with a
/// diagnostic instead of overflowing the stack; the corpus tops out near
/// depth 65. It also bounds every parsed term's depth(), so the recursive
/// term walkers downstream — printSexp, evalToFlatCsg, the solver
/// preprocessing — never see a deeper one: for parseSexp nesting and depth
/// coincide, and scad::parseScad checks the depth of its result, since an
/// unrolled loop nests no deeper than its body but builds a Union spine as
/// long as its iteration count. evalToFlatCsg bounds its result the same
/// way, for the same reason. (EGraph::addTerm is iterative.)
constexpr size_t kMaxSourceDepth = 1000;

/// Parses a single term from \p Text. Trailing whitespace is allowed;
/// trailing non-whitespace is an error.
ParseResult parseSexp(std::string_view Text);

/// Prints \p T as a canonical single-line s-expression. Round-trips through
/// parseSexp (bit-exact for Int; shortest round-trip form for Float).
std::string printSexp(const TermPtr &T);

/// Pretty-prints \p T in the paper's OCaml-like style with indentation:
///   Translate (1, 2, 3, Unit)
///   Fold (Union, Empty, Mapi (Fun (i, c) -> ..., Repeat (Tooth, 60)))
std::string prettyPrint(const TermPtr &T);

/// Formats a double in its shortest form that round-trips, with a trailing
/// ".0" added to distinguish Float literals from Int in the s-expr syntax.
std::string formatFloat(double Value);

} // namespace shrinkray

#endif // SHRINKRAY_CAD_SEXP_H
