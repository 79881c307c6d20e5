//===-- rewrites/Rules.cpp - The CAD rewrite rule database ----------------===//

#include "rewrites/Rules.h"

#include "linalg/Vec3.h"

#include <array>
#include <cmath>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Adds a literal Vec3 e-node for \p V, returning its class.
static EClassId addVecConst(EGraph &G, Vec3 V) {
  EClassId X = G.add(ENode(Op::makeFloat(V.X), {}));
  EClassId Y = G.add(ENode(Op::makeFloat(V.Y), {}));
  EClassId Z = G.add(ENode(Op::makeFloat(V.Z), {}));
  return G.add(ENode(Op(OpKind::Vec3Ctor), {X, Y, Z}));
}

/// Rounds each component of \p V onto a 1e-9 grid (-0 becomes 0). The
/// rotate/translate reorders compute R*t and then R^T*(R*t), which misses t
/// by an ulp, so off the grid every pass minted fresh Float classes. On the
/// grid a round trip lands on t, or rarely one grid step from it (a literal
/// 2 can come back as 1.999999999), and the next trip hits the hashcons, so
/// the reorder cycle closes. 1e-9 sits far inside the solvers' literal
/// epsilon band (1e-3).
static Vec3 onGrid(Vec3 V) {
  for (double *X : {&V.X, &V.Y, &V.Z}) {
    *X = std::round(*X * 1e9) / 1e9;
    if (*X == 0.0)
      *X = 0.0;
  }
  return V;
}

/// Three pattern variables naming a vector's components, interned once
/// when the rules are built: constructing a Symbol takes the process-wide
/// intern lock, which the per-match guards and appliers must not.
using VecVars = std::array<Symbol, 3>;

static VecVars vecVars(const char *X, const char *Y, const char *Z) {
  return {Symbol(X), Symbol(Y), Symbol(Z)};
}

/// Reads the three bound scalar components of a matched vector as a Vec3.
static Vec3 boundVec(const EGraph &G, const Subst &S, const VecVars &V) {
  return {constValue(G, S, V[0]), constValue(G, S, V[1]),
          constValue(G, S, V[2])};
}

/// True if every component of both vectors is bound to a constant.
static bool allConst(const EGraph &G, const Subst &S, const VecVars &A,
                     const VecVars &B) {
  for (const VecVars *V : {&A, &B})
    for (Symbol Var : *V)
      if (!G.data(S[Var]).NumConst)
        return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Figure 8a: lifting affine transformations out of boolean operations
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::liftingRules() {
  std::vector<Rewrite> Rules;
  const char *Bools[] = {"Union", "Diff", "Inter"};
  const char *Affines[] = {"Translate", "Scale", "Rotate"};
  for (const char *B : Bools)
    for (const char *A : Affines) {
      std::string Name =
          std::string("lift-") + A + "-over-" + B; // e.g. lift-Translate-over-Union
      std::string Lhs = std::string("(") + B + " (" + A + " ?v ?a) (" + A +
                        " ?v ?b))";
      std::string Rhs =
          std::string("(") + A + " ?v (" + B + " ?a ?b))";
      Rules.emplace_back(Name, Lhs, Rhs);
    }
  return Rules;
}

//===----------------------------------------------------------------------===//
// Figure 8b: reordering nested affine transformations
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::reorderRules() {
  std::vector<Rewrite> Rules;

  // Uniform scaling commutes with rotation (non-uniform would need shear).
  Rules.emplace_back("reorder-uniform-scale-rotate",
                     "(Scale (Vec3 ?x ?x ?x) (Rotate ?r ?c))",
                     "(Rotate ?r (Scale (Vec3 ?x ?x ?x) ?c))");
  Rules.emplace_back("reorder-rotate-uniform-scale",
                     "(Rotate ?r (Scale (Vec3 ?x ?x ?x) ?c))",
                     "(Scale (Vec3 ?x ?x ?x) (Rotate ?r ?c))");

  // Scale(s, Translate(t, c)) == Translate(s*t, Scale(s, c)).
  Rules.emplace_back(
      "reorder-scale-translate",
      "(Scale (Vec3 ?sx ?sy ?sz) (Translate (Vec3 ?tx ?ty ?tz) ?c))",
      "(Translate (Vec3 (Mul ?tx ?sx) (Mul ?ty ?sy) (Mul ?tz ?sz)) "
      "(Scale (Vec3 ?sx ?sy ?sz) ?c))");

  // Translate(t, Scale(s, c)) == Scale(s, Translate(t/s, c)), s nonzero.
  Rules.emplace_back(
      "reorder-translate-scale",
      "(Translate (Vec3 ?tx ?ty ?tz) (Scale (Vec3 ?sx ?sy ?sz) ?c))",
      "(Scale (Vec3 ?sx ?sy ?sz) "
      "(Translate (Vec3 (Div ?tx ?sx) (Div ?ty ?sy) (Div ?tz ?sz)) ?c))",
      guardAnd(isNonzeroConst("sx"),
               guardAnd(isNonzeroConst("sy"), isNonzeroConst("sz"))));

  // Rotate(r, Translate(v, c)) == Translate(R_r v, Rotate(r, c)); exact for
  // any Euler rotation, computed numerically on constant vectors.
  const VecVars Rv = vecVars("rx", "ry", "rz"), Tv = vecVars("tx", "ty", "tz");
  const Symbol C("c");
  Rules.emplace_back(
      "reorder-rotate-translate",
      "(Rotate (Vec3 ?rx ?ry ?rz) (Translate (Vec3 ?tx ?ty ?tz) ?c))",
      [=](EGraph &G, EClassId, const Subst &S) -> std::optional<EClassId> {
        if (!allConst(G, S, Rv, Tv))
          return std::nullopt;
        Vec3 R = boundVec(G, S, Rv);
        Vec3 T = boundVec(G, S, Tv);
        Vec3 Moved = onGrid(Mat3::rotXyz(R) * T);
        EClassId Rot =
            G.add(ENode(Op(OpKind::Rotate), {addVecConst(G, R), S[C]}));
        return G.add(
            ENode(Op(OpKind::Translate), {addVecConst(G, Moved), Rot}));
      });

  // Translate(v, Rotate(r, c)) == Rotate(r, Translate(R_r^-1 v, c)).
  Rules.emplace_back(
      "reorder-translate-rotate",
      "(Translate (Vec3 ?tx ?ty ?tz) (Rotate (Vec3 ?rx ?ry ?rz) ?c))",
      [=](EGraph &G, EClassId, const Subst &S) -> std::optional<EClassId> {
        if (!allConst(G, S, Rv, Tv))
          return std::nullopt;
        Vec3 R = boundVec(G, S, Rv);
        Vec3 T = boundVec(G, S, Tv);
        Vec3 Moved = onGrid(Mat3::rotXyz(R).transpose() * T);
        EClassId Tr = G.add(
            ENode(Op(OpKind::Translate), {addVecConst(G, Moved), S[C]}));
        return G.add(ENode(Op(OpKind::Rotate), {addVecConst(G, R), Tr}));
      });

  return Rules;
}

//===----------------------------------------------------------------------===//
// Figure 8c: collapsing nested same-type affine transformations
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::collapseRules() {
  std::vector<Rewrite> Rules;

  Rules.emplace_back(
      "collapse-translate-translate",
      "(Translate (Vec3 ?ax ?ay ?az) (Translate (Vec3 ?bx ?by ?bz) ?c))",
      "(Translate (Vec3 (Add ?ax ?bx) (Add ?ay ?by) (Add ?az ?bz)) ?c)");

  Rules.emplace_back(
      "collapse-scale-scale",
      "(Scale (Vec3 ?ax ?ay ?az) (Scale (Vec3 ?bx ?by ?bz) ?c))",
      "(Scale (Vec3 (Mul ?ax ?bx) (Mul ?ay ?by) (Mul ?az ?bz)) ?c)");

  // Same-axis rotations add (axis-aligned cases, as in the paper).
  auto sameAxis = [Av = vecVars("ax", "ay", "az"),
                   Bv = vecVars("bx", "by", "bz")](const EGraph &G,
                                                   const Subst &S) {
    if (!allConst(G, S, Av, Bv))
      return false;
    Vec3 A = boundVec(G, S, Av);
    Vec3 B = boundVec(G, S, Bv);
    // Each rotation must live on one axis, and on the same one (a zero
    // rotation is compatible with any axis).
    for (int Axis = 0; Axis < 3; ++Axis) {
      bool AOk = true, BOk = true;
      for (int I = 0; I < 3; ++I) {
        if (I != Axis && A[I] != 0.0)
          AOk = false;
        if (I != Axis && B[I] != 0.0)
          BOk = false;
      }
      if (AOk && BOk)
        return true;
    }
    return false;
  };
  Rules.emplace_back(
      "collapse-rotate-rotate-axis",
      "(Rotate (Vec3 ?ax ?ay ?az) (Rotate (Vec3 ?bx ?by ?bz) ?c))",
      "(Rotate (Vec3 (Add ?ax ?bx) (Add ?ay ?by) (Add ?az ?bz)) ?c)",
      sameAxis);

  return Rules;
}

//===----------------------------------------------------------------------===//
// Figure 8d: folds and list normalization
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::foldRules() {
  std::vector<Rewrite> Rules;

  // union(x, y) ~> fold(union, empty, x :: y :: nil)
  Rules.emplace_back("fold-intro", "(Union ?x ?y)",
                     "(Fold Union Empty (Cons ?x (Cons ?y Nil)))");

  // union(x, fold(union, y, zs)) ~> fold(union, y, x :: zs)
  Rules.emplace_back("fold-cons-right", "(Union ?x (Fold Union ?y ?zs))",
                     "(Fold Union ?y (Cons ?x ?zs))");

  // union(fold(union, y, zs), x) ~> fold(union, y, x :: zs)
  // (the paper appends zs @ [x]; union's commutativity lets us cons, which
  // keeps lists as pure spines)
  Rules.emplace_back("fold-cons-left", "(Union (Fold Union ?y ?zs) ?x)",
                     "(Fold Union ?y (Cons ?x ?zs))");

  // union of two folds ~> one fold over the concatenated lists
  Rules.emplace_back(
      "fold-fold-concat",
      "(Union (Fold Union Empty ?xs) (Fold Union Empty ?ys))",
      "(Fold Union Empty (Concat ?xs ?ys))");

  // Concat normalization: keeps fold lists as Cons spines.
  Rules.emplace_back("concat-cons", "(Concat (Cons ?x ?xs) ?ys)",
                     "(Cons ?x (Concat ?xs ?ys))");
  Rules.emplace_back("concat-nil", "(Concat Nil ?ys)", "?ys");

  return Rules;
}

//===----------------------------------------------------------------------===//
// Boolean-operator properties
//===----------------------------------------------------------------------===//

std::vector<Rewrite>
shrinkray::booleanRules(bool IncludeAssociativity,
                        bool IncludeCommutativity) {
  std::vector<Rewrite> Rules;

  Rules.emplace_back("union-empty-right", "(Union ?a Empty)", "?a");
  Rules.emplace_back("union-empty-left", "(Union Empty ?a)", "?a");
  Rules.emplace_back("diff-empty-right", "(Diff ?a Empty)", "?a");
  Rules.emplace_back("diff-empty-left", "(Diff Empty ?a)", "Empty");
  Rules.emplace_back("inter-empty-right", "(Inter ?a Empty)", "Empty");
  Rules.emplace_back("inter-empty-left", "(Inter Empty ?a)", "Empty");
  Rules.emplace_back("union-idem", "(Union ?a ?a)", "?a");
  Rules.emplace_back("inter-idem", "(Inter ?a ?a)", "?a");
  Rules.emplace_back("diff-self", "(Diff ?a ?a)", "Empty");
  if (IncludeCommutativity) {
    Rules.emplace_back("union-comm", "(Union ?a ?b)", "(Union ?b ?a)");
    Rules.emplace_back("inter-comm", "(Inter ?a ?b)", "(Inter ?b ?a)");
  }
  // diff(diff(a, b), c) == diff(a, union(b, c))
  Rules.emplace_back("diff-diff", "(Diff (Diff ?a ?b) ?c)",
                     "(Diff ?a (Union ?b ?c))");

  if (IncludeAssociativity) {
    Rules.emplace_back("union-assoc-l", "(Union (Union ?a ?b) ?c)",
                       "(Union ?a (Union ?b ?c))");
    Rules.emplace_back("union-assoc-r", "(Union ?a (Union ?b ?c))",
                       "(Union (Union ?a ?b) ?c)");
    Rules.emplace_back("inter-assoc-l", "(Inter (Inter ?a ?b) ?c)",
                       "(Inter ?a (Inter ?b ?c))");
  }
  return Rules;
}

//===----------------------------------------------------------------------===//
// Affine identities
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::identityRules() {
  std::vector<Rewrite> Rules;

  auto allEqual = [](const char *X, const char *Y, const char *Z,
                     double Value) {
    return [=, Vars = vecVars(X, Y, Z)](const EGraph &G, const Subst &S) {
      for (Symbol V : Vars) {
        const AnalysisData &D = G.data(S[V]);
        if (!D.NumConst || *D.NumConst != Value)
          return false;
      }
      return true;
    };
  };

  Rules.emplace_back("translate-identity",
                     "(Translate (Vec3 ?x ?y ?z) ?c)", "?c",
                     allEqual("x", "y", "z", 0.0));
  Rules.emplace_back("scale-identity", "(Scale (Vec3 ?x ?y ?z) ?c)", "?c",
                     allEqual("x", "y", "z", 1.0));
  Rules.emplace_back("rotate-identity", "(Rotate (Vec3 ?x ?y ?z) ?c)", "?c",
                     allEqual("x", "y", "z", 0.0));
  return Rules;
}

//===----------------------------------------------------------------------===//
// List / combinator algebra
//===----------------------------------------------------------------------===//

std::vector<Rewrite> shrinkray::listAlgebraRules() {
  std::vector<Rewrite> Rules;

  // fold(op, e, nil) == e, for any initial solid.
  Rules.emplace_back("fold-nil", "(Fold Union ?e Nil)", "?e");
  // fold(union, empty, [x]) == x.
  Rules.emplace_back("fold-singleton",
                     "(Fold Union Empty (Cons ?x Nil))", "?x");
  // concat(xs, nil) == xs (the mirror of concat-nil in foldRules()).
  Rules.emplace_back("concat-nil-right", "(Concat ?xs Nil)", "?xs");
  // repeat(x, 0) == nil.
  Rules.emplace_back("repeat-zero", "(Repeat ?x 0)", "Nil");
  // cons(x, repeat(x, n)) == repeat(x, n+1) for a constant count: grows
  // Repeat runs out of literal spines.
  const Symbol X("x"), N("n");
  Rules.emplace_back(
      "cons-repeat-grow", "(Cons ?x (Repeat ?x ?n))",
      [=](EGraph &G, EClassId, const Subst &S) -> std::optional<EClassId> {
        const AnalysisData &D = G.data(S[N]);
        if (!D.NumConst || !D.NumIsInt)
          return std::nullopt;
        EClassId Count = G.add(
            ENode(Op::makeInt(static_cast<int64_t>(*D.NumConst) + 1), {}));
        return G.add(ENode(Op(OpKind::Repeat), {S[X], Count}));
      });
  // cons(x, cons(x, nil)) == repeat(x, 2): seeds Repeat discovery.
  Rules.emplace_back(
      "cons-pair-to-repeat", "(Cons ?x (Cons ?x Nil))",
      [=](EGraph &G, EClassId, const Subst &S) -> std::optional<EClassId> {
        EClassId Two = G.add(ENode(Op::makeInt(2), {}));
        return G.add(ENode(Op(OpKind::Repeat), {S[X], Two}));
      });
  return Rules;
}

//===----------------------------------------------------------------------===//
// Assembled sets
//===----------------------------------------------------------------------===//

static void appendRules(std::vector<Rewrite> &Into,
                        std::vector<Rewrite> From) {
  for (Rewrite &R : From)
    Into.push_back(std::move(R));
}

std::vector<Rewrite> shrinkray::pipelineRules() {
  std::vector<Rewrite> Rules;
  appendRules(Rules, liftingRules());
  appendRules(Rules, reorderRules());
  appendRules(Rules, collapseRules());
  appendRules(Rules, foldRules());
  appendRules(Rules, booleanRules(/*IncludeAssociativity=*/false,
                                  /*IncludeCommutativity=*/false));
  appendRules(Rules, identityRules());
  appendRules(Rules, listAlgebraRules());
  return Rules;
}

std::vector<Rewrite> shrinkray::allRewrites() {
  std::vector<Rewrite> Rules;
  appendRules(Rules, liftingRules());
  appendRules(Rules, reorderRules());
  appendRules(Rules, collapseRules());
  appendRules(Rules, foldRules());
  appendRules(Rules, booleanRules(/*IncludeAssociativity=*/true));
  appendRules(Rules, identityRules());
  appendRules(Rules, listAlgebraRules());
  return Rules;
}
