//===-- egraph/Pattern.h - E-matching patterns ------------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Patterns over the CAD vocabulary with pattern variables (`?x`), matched
/// against e-graphs (e-matching). A match of pattern `a` in class `c` yields
/// a substitution mapping each pattern variable to an e-class; rewrites then
/// instantiate their right-hand side under that substitution and merge it
/// with `c` (paper Sec. 3.1).
///
/// Each pattern is compiled once into a flat instruction program (the shape
/// of egg's machine.rs): Bind scans a class for nodes with a given head and
/// writes their children into registers, Compare enforces nonlinear
/// variables. An explicit-stack VM executes the program with zero per-match
/// heap allocation, backtracking over Bind choice points. Whole-graph
/// search seeds its candidate classes from the e-graph's operator-head
/// index instead of scanning every class.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_PATTERN_H
#define SHRINKRAY_EGRAPH_PATTERN_H

#include "cad/Term.h"
#include "egraph/EGraph.h"

#include <string_view>
#include <utility>
#include <vector>

namespace shrinkray {

/// A substitution from pattern variables to e-classes. Small linear map
/// with inline storage: the rule database's patterns bind at most seven
/// variables, so in the common case a Subst never touches the heap —
/// which matters because the match VM materializes one per completed
/// substitution, including the ones a guard immediately rejects.
class Subst {
public:
  /// Looks up a binding; asserts that it exists.
  EClassId operator[](Symbol Var) const {
    const std::pair<Symbol, EClassId> *B = data();
    for (uint32_t I = 0; I < Count; ++I)
      if (B[I].first == Var)
        return B[I].second;
    assert(false && "unbound pattern variable");
    return 0;
  }

  /// Returns the binding for \p Var, or nullopt.
  std::optional<EClassId> get(Symbol Var) const {
    const std::pair<Symbol, EClassId> *B = data();
    for (uint32_t I = 0; I < Count; ++I)
      if (B[I].first == Var)
        return B[I].second;
    return std::nullopt;
  }

  void bind(Symbol Var, EClassId Class) {
    assert(!get(Var) && "rebinding a pattern variable");
    if (Count < InlineCap && Overflow.empty()) {
      Inline[Count++] = {Var, Class};
      return;
    }
    if (Overflow.empty())
      Overflow.assign(Inline, Inline + InlineCap);
    Overflow.emplace_back(Var, Class);
    ++Count;
  }

  void pop() {
    assert(Count > 0 && "pop on empty substitution");
    --Count;
    if (!Overflow.empty())
      Overflow.pop_back();
  }

  size_t size() const { return Count; }

private:
  static constexpr uint32_t InlineCap = 8;

  const std::pair<Symbol, EClassId> *data() const {
    return Overflow.empty() ? Inline : Overflow.data();
  }

  std::pair<Symbol, EClassId> Inline[InlineCap];
  /// Engaged (holding every binding) only past InlineCap. Once engaged it
  /// stays engaged until popped empty, so data() has one switch.
  std::vector<std::pair<Symbol, EClassId>> Overflow;
  uint32_t Count = 0;
};

/// One instruction of a compiled match program. Registers hold e-class
/// ids; register 0 is the root class the match is attempted in.
struct MatchInstr {
  enum class Kind : uint8_t {
    /// Scan the class in register In for e-nodes with head Operator and
    /// Arity children; for each, write the children into registers
    /// Out..Out+Arity-1 and continue (a backtracking choice point).
    Bind,
    /// Fail unless registers In and Out name the same e-class (nonlinear
    /// occurrence of a pattern variable).
    Compare,
  };

  Kind K;
  uint16_t In = 0;
  uint16_t Out = 0;
  uint16_t Arity = 0;
  Op Operator{OpKind::Empty}; // Bind only

  static MatchInstr bind(Op O, uint16_t In, uint16_t Out, uint16_t Arity) {
    MatchInstr I{Kind::Bind};
    I.In = In;
    I.Out = Out;
    I.Arity = Arity;
    I.Operator = std::move(O);
    return I;
  }
  static MatchInstr compare(uint16_t A, uint16_t B) {
    MatchInstr I{Kind::Compare};
    I.In = A;
    I.Out = B;
    return I;
  }

  /// Structural equality. Register allocation is a pure function of the
  /// preceding instruction sequence, so two programs whose instruction
  /// prefixes compare equal bind the same registers — the property the
  /// RuleSet trie compiler relies on to merge shared prefixes.
  friend bool operator==(const MatchInstr &A, const MatchInstr &B) {
    return A.K == B.K && A.In == B.In && A.Out == B.Out &&
           A.Arity == B.Arity && A.Operator == B.Operator;
  }
  friend bool operator!=(const MatchInstr &A, const MatchInstr &B) {
    return !(A == B);
  }

private:
  explicit MatchInstr(Kind K) : K(K) {}
};

/// A pattern compiled to a register machine. Built once per Pattern (rule
/// construction time); run per candidate class with no heap allocation
/// beyond the output substitutions.
class MatchProgram {
public:
  /// Compiles the pattern term \p Root (left-to-right depth-first, so
  /// matches are produced in the same order as the recursive reference
  /// matcher).
  explicit MatchProgram(const TermPtr &Root);

  /// Runs the program rooted at \p Root, appending one Subst per match.
  void run(const EGraph &G, EClassId Root, std::vector<Subst> &Out) const;

  size_t numInstrs() const { return Instrs.size(); }
  size_t numRegs() const { return NumRegs; }

  /// The compiled instruction sequence (RuleSet merges these into a
  /// shared-prefix trie across the rule database).
  const std::vector<MatchInstr> &instrs() const { return Instrs; }

  /// Pattern variables and the register each binds, first-occurrence
  /// order (index-aligned with Pattern::vars()).
  const std::vector<std::pair<Symbol, uint16_t>> &varRegs() const {
    return VarRegs;
  }

private:
  std::vector<MatchInstr> Instrs;
  /// Pattern variables and the register holding their binding, in
  /// first-occurrence order (matches Pattern::vars()).
  std::vector<std::pair<Symbol, uint16_t>> VarRegs;
  uint16_t NumRegs = 1;

  void compile(const TermPtr &Pat, uint16_t Reg);
};

/// A compiled pattern: a term tree in which PatVar leaves are variables.
class Pattern {
public:
  /// Compiles \p T into a pattern. PatVar nodes become variables.
  explicit Pattern(TermPtr T);

  /// Parses a pattern from s-expression syntax (with `?x` variables).
  /// Asserts on parse errors: pattern strings are compiled-in constants.
  static Pattern parse(std::string_view Sexp);

  const TermPtr &term() const { return Root; }

  /// The distinct pattern variables, in first-occurrence order.
  const std::vector<Symbol> &vars() const { return Vars; }

  /// All matches of this pattern rooted at class \p Root (compiled VM).
  std::vector<Subst> matchClass(const EGraph &G, EClassId Root) const;

  /// Reference implementation of matchClass: the recursive CPS
  /// backtracking matcher the VM replaced. Kept for differential testing
  /// (the engine's equivalence suite runs both on every rule); slower —
  /// allocates a std::function continuation chain per node visited.
  std::vector<Subst> matchClassReference(const EGraph &G,
                                         EClassId Root) const;

  /// All matches anywhere in the graph: (root class, substitution) pairs.
  /// Candidate roots are seeded from the graph's operator-head index, so
  /// cost scales with classes containing the root operator, not with
  /// graph size.
  std::vector<std::pair<EClassId, Subst>> search(const EGraph &G) const;

  /// The operator at the pattern root (head index key). Asserts the root
  /// is not a pattern variable (true of every rewrite in the database).
  const Op &rootOp() const {
    assert(Root->kind() != OpKind::PatVar && "var-rooted pattern");
    return Root->op();
  }

  /// Like search(), but only scans \p Candidates (classes known to contain
  /// a node with the root operator kind).
  std::vector<std::pair<EClassId, Subst>>
  searchIn(const EGraph &G, const std::vector<EClassId> &Candidates) const;

  /// The compiled register program (trie-compilation input).
  const MatchProgram &program() const { return Prog; }

  /// Builds the term/e-nodes for this pattern under \p S in \p G, returning
  /// the class of the instantiated root. All variables must be bound.
  EClassId instantiate(EGraph &G, const Subst &S) const;

private:
  TermPtr Root;
  std::vector<Symbol> Vars;
  MatchProgram Prog;

  static void collectVars(const TermPtr &T, std::vector<Symbol> &Out);
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_PATTERN_H
