//===-- egraph/Rewrite.h - Rewrite rules ------------------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantics-preserving rewrite rules `a ~> b` applied to an e-graph
/// non-destructively: when an e-class matches the left-hand side under a
/// substitution, the instantiated right-hand side is merged into that class
/// (paper Sec. 3.1). Rules may carry a guard (a side condition over the
/// substitution — e.g. "?x is a nonzero constant") and may compute their
/// right-hand side programmatically (e.g. affine collapsing computes x + x').
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_REWRITE_H
#define SHRINKRAY_EGRAPH_REWRITE_H

#include "egraph/Pattern.h"

#include <functional>
#include <optional>
#include <string>

namespace shrinkray {

/// A rewrite rule.
class Rewrite {
public:
  /// Guard over a substitution; the rule fires only when it returns true.
  using Guard = std::function<bool(const EGraph &, const Subst &)>;

  /// Computes the class to merge with the matched class, or nullopt to
  /// skip this match. May add nodes to the graph.
  using Applier =
      std::function<std::optional<EClassId>(EGraph &, EClassId, const Subst &)>;

  /// Purely syntactic rule: lhs ~> rhs, both in `?x` pattern syntax.
  Rewrite(std::string Name, std::string_view Lhs, std::string_view Rhs);

  /// Syntactic rule with a guard.
  Rewrite(std::string Name, std::string_view Lhs, std::string_view Rhs,
          Guard Condition);

  /// Rule with a programmatic right-hand side.
  Rewrite(std::string Name, std::string_view Lhs, Applier Apply);

  /// What one applyMatch() call did to the graph.
  enum class ApplyOutcome : uint8_t {
    Skipped,   ///< a programmatic applier declined (e.g. operands not yet
               ///< constant); the match may become applicable later
    Unchanged, ///< merged, but the classes were already equal
    Changed,   ///< merged and the graph changed
  };

  const std::string &name() const { return Name; }
  const Pattern &lhs() const { return Lhs; }

  /// The side condition, or an empty function when unconditional. Guards
  /// must be pure const reads of the graph — the compiled rule database
  /// (RuleSet) evaluates them at trie leaves, possibly from the Runner's
  /// parallel search threads.
  const Guard &guard() const { return Condition; }

  /// All current matches of the left-hand side (after guards). Seeds
  /// candidate roots from the e-graph's operator-head index.
  std::vector<std::pair<EClassId, Subst>> search(const EGraph &G) const;

  /// Like search(), scanning only \p Candidates (e.g. the operator-head
  /// index restricted to dirty classes, as the Runner's incremental
  /// scheduler does).
  std::vector<std::pair<EClassId, Subst>>
  searchIn(const EGraph &G, const std::vector<EClassId> &Candidates) const;

  /// Applies the rule to one match. Returns true if the graph changed.
  /// The caller is responsible for calling rebuild() afterwards.
  bool apply(EGraph &G, EClassId Root, const Subst &S) const;

  /// Like apply(), but distinguishes a declined programmatic applier
  /// (Skipped — worth retrying later, constants are monotone) from a
  /// merge that found the classes already equal (Unchanged — idempotent,
  /// never worth re-applying). The Runner's applied-match memo keys off
  /// this distinction.
  ApplyOutcome applyMatch(EGraph &G, EClassId Root, const Subst &S) const;

  /// Convenience: search + apply all + rebuild. Returns number of changes.
  size_t run(EGraph &G) const;

private:
  std::string Name;
  Pattern Lhs;
  std::optional<Pattern> Rhs;
  Guard Condition;
  Applier Apply;
};

/// Guard helpers shared by the rule database.

/// True iff the class bound to \p Var has a known numeric constant.
Rewrite::Guard isConst(std::string_view Var);

/// True iff all of the listed variables are numeric constants.
Rewrite::Guard areConst(std::initializer_list<std::string_view> Vars);

/// True iff \p Var is a numeric constant and nonzero.
Rewrite::Guard isNonzeroConst(std::string_view Var);

/// Conjunction of two guards.
Rewrite::Guard guardAnd(Rewrite::Guard A, Rewrite::Guard B);

/// Reads the constant value of the class bound to \p Var; asserts presence.
/// Takes a Symbol rather than a spelling: interning takes the process-wide
/// intern lock, so per-match callers intern their variables once.
double constValue(const EGraph &G, const Subst &S, Symbol Var);

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_REWRITE_H
