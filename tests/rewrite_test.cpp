//===-- tests/rewrite_test.cpp - Rule-database soundness tests ------------===//
//
// Every rewrite in the database is semantics-preserving (paper Sec. 3.2;
// the authors checked theirs with a computer algebra system). Here each rule
// is validated operationally: apply it to generator terms that match its
// left-hand side, extract any other representative of the root class, and
// check geometric equivalence with the sampling oracle.
//
//===----------------------------------------------------------------------===//

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "geom/Sample.h"
#include "rewrites/Rules.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace shrinkray;
using namespace shrinkray::geom;

namespace {

/// Generates a random flat CSG term of bounded depth.
TermPtr randomFlatCsg(Rng &R, int Depth) {
  if (Depth <= 0 || R.nextBelow(4) == 0) {
    switch (R.nextBelow(4)) {
    case 0:
      return tUnit();
    case 1:
      return tSphere();
    case 2:
      return tCylinder();
    default:
      return tHexagon();
    }
  }
  switch (R.nextBelow(6)) {
  case 0:
    return tTranslate(R.nextDouble(-4, 4), R.nextDouble(-4, 4),
                      R.nextDouble(-4, 4), randomFlatCsg(R, Depth - 1));
  case 1: {
    auto nz = [&] {
      double S = R.nextDouble(0.3, 2.5);
      return R.nextBelow(2) ? S : -S;
    };
    return tScale(nz(), nz(), nz(), randomFlatCsg(R, Depth - 1));
  }
  case 2: {
    // Axis-aligned rotations keep collapse rules applicable.
    double Angle = static_cast<double>(R.nextBelow(8)) * 45.0;
    switch (R.nextBelow(3)) {
    case 0:
      return tRotate(Angle, 0, 0, randomFlatCsg(R, Depth - 1));
    case 1:
      return tRotate(0, Angle, 0, randomFlatCsg(R, Depth - 1));
    default:
      return tRotate(0, 0, Angle, randomFlatCsg(R, Depth - 1));
    }
  }
  case 3:
    return tUnion(randomFlatCsg(R, Depth - 1), randomFlatCsg(R, Depth - 1));
  case 4:
    return tDiff(randomFlatCsg(R, Depth - 1), randomFlatCsg(R, Depth - 1));
  default:
    return tInter(randomFlatCsg(R, Depth - 1), randomFlatCsg(R, Depth - 1));
  }
}

/// Checks that running \p Rules over \p Input preserves geometry for every
/// extractable alternative of the root class.
void expectRulesSound(const std::vector<Rewrite> &Rules, const TermPtr &Input,
                      const char *Tag) {
  ASSERT_TRUE(isFlatCsg(Input)) << Tag;
  EGraph G;
  EClassId Root = G.addTerm(Input);
  Runner R(RunnerLimits{.IterLimit = 4, .NodeLimit = 20000});
  R.run(G, Rules);

  AstSizeCost Cost;
  KBestExtractor Ex(G, Cost, 4);
  auto Ranked = Ex.extract(Root);
  ASSERT_FALSE(Ranked.empty()) << Tag;
  SampleOptions Opts;
  Opts.NumPoints = 4000;
  for (const RankedTerm &Alt : Ranked) {
    EvalResult Flat = evalToFlatCsg(Alt.T);
    ASSERT_TRUE(Flat) << Tag << ": " << Flat.Error;
    SampleReport Rep = compareBySampling(Input, Flat.Value, Opts);
    EXPECT_TRUE(Rep.Equivalent)
        << Tag << ": mismatch ratio " << Rep.mismatchRatio() << "\n  alt "
        << printSexp(Alt.T);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Directed rule-by-rule checks
//===----------------------------------------------------------------------===//

TEST(RuleSoundness, LiftTranslateOverUnion) {
  TermPtr T = tUnion(tTranslate(1, 2, 3, tUnit()),
                     tTranslate(1, 2, 3, tSphere()));
  expectRulesSound(liftingRules(), T, "lift-translate-union");
  // And the lift actually fires: the lifted form is represented.
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, liftingRules());
  EXPECT_TRUE(G.representsTerm(
      Root, tTranslate(1, 2, 3, tUnion(tUnit(), tSphere()))));
}

TEST(RuleSoundness, LiftRotateOverDiff) {
  TermPtr T = tDiff(tRotate(0, 0, 30, tUnit()), tRotate(0, 0, 30, tSphere()));
  expectRulesSound(liftingRules(), T, "lift-rotate-diff");
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, liftingRules());
  EXPECT_TRUE(G.representsTerm(
      Root, tRotate(0, 0, 30, tDiff(tUnit(), tSphere()))));
}

TEST(RuleSoundness, LiftScaleOverInter) {
  TermPtr T = tInter(tScale(2, 3, 4, tUnit()), tScale(2, 3, 4, tSphere()));
  expectRulesSound(liftingRules(), T, "lift-scale-inter");
}

TEST(RuleSoundness, CollapseTranslateTranslate) {
  TermPtr T = tTranslate(1, 2, 3, tTranslate(4, 5, 6, tUnit()));
  expectRulesSound(collapseRules(), T, "collapse-trans-trans");
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, collapseRules());
  EXPECT_TRUE(G.representsTermApprox(Root, tTranslate(5, 7, 9, tUnit()), 1e-9));
}

TEST(RuleSoundness, CollapseScaleScale) {
  TermPtr T = tScale(2, 2, 2, tScale(3, 1, 0.5, tSphere()));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, collapseRules());
  EXPECT_TRUE(G.representsTermApprox(Root, tScale(6, 2, 1, tSphere()), 1e-9));
  expectRulesSound(collapseRules(), T, "collapse-scale-scale");
}

TEST(RuleSoundness, CollapseRotateSameAxis) {
  TermPtr T = tRotate(0, 0, 30, tRotate(0, 0, 60, tUnit()));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, collapseRules());
  EXPECT_TRUE(G.representsTermApprox(Root, tRotate(0, 0, 90, tUnit()), 1e-9));
  expectRulesSound(collapseRules(), T, "collapse-rot-z");
}

TEST(RuleSoundness, CollapseRotateMixedAxesDoesNotFire) {
  TermPtr T = tRotate(30, 0, 0, tRotate(0, 0, 60, tUnit()));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, collapseRules());
  // Euler angles about different axes must NOT be added together.
  EXPECT_FALSE(G.representsTermApprox(Root, tRotate(30, 0, 60, tUnit()), 1e-9));
}

TEST(RuleSoundness, ReorderScaleTranslate) {
  TermPtr T = tScale(2, 3, 4, tTranslate(1, 1, 2, tUnit()));
  expectRulesSound(reorderRules(), T, "reorder-scale-translate");
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, reorderRules());
  EXPECT_TRUE(G.representsTermApprox(
      Root, tTranslate(2, 3, 8, tScale(2, 3, 4, tUnit())), 1e-9));
}

TEST(RuleSoundness, ReorderTranslateScaleNeedsNonzero) {
  TermPtr T = tTranslate(2, 4, 6, tScale(2, 4, 0, tUnit()));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, reorderRules());
  // Zero scale: the division rule must not fire.
  for (ENodeId N : G.eclass(Root).Nodes)
    EXPECT_NE(G.node(N).kind(), OpKind::Scale);
}

TEST(RuleSoundness, ReorderRotateTranslateGeneralAngles) {
  TermPtr T = tRotate(20, 40, 60, tTranslate(1, 2, 3, tUnit()));
  expectRulesSound(reorderRules(), T, "reorder-rotate-translate");
}

TEST(RuleSoundness, ReorderTranslateRotateRoundTrips) {
  TermPtr T = tTranslate(3, -1, 2, tRotate(0, 0, 45, tSphere()));
  expectRulesSound(reorderRules(), T, "reorder-translate-rotate");
}

TEST(RuleSoundness, OffAxisRotateTranslateReorderSaturates) {
  // R*t followed by R^T*(R*t) misses t by an ulp off the axes; unless the
  // reorders land on the literals they started from, every pass mints
  // fresh Float classes and the cycle never closes.
  const TermPtr Inputs[] = {
      tRotate(20, 40, 60, tTranslate(1, 2, 3, tUnit())),
      tRotate(0.5, 0, 36, tTranslate(125, 0, 0, tUnit())),
      tRotate(20, 40, 60, tTranslate(1.0 / 3, -2.0 / 7, 3.1, tUnit())),
      tTranslate(1.0 / 3, 5, -2.0 / 7, tRotate(33, 0, 71, tSphere()))};
  for (const TermPtr &T : Inputs) {
    EGraph G;
    G.addTerm(T);
    RunnerReport Rep = Runner().run(G, reorderRules());
    EXPECT_EQ(Rep.Stop, StopReason::Saturated) << printSexp(T);
    EXPECT_LE(Rep.numIterations(), 5u) << printSexp(T);
    EXPECT_LE(G.numNodes(), 40u) << printSexp(T);
    expectRulesSound(reorderRules(), T, "reorder-rotate-translate-cycle");
  }
}

TEST(RuleSoundness, ReorderUniformScaleRotate) {
  TermPtr T = tScale(2, 2, 2, tRotate(10, 20, 30, tUnit()));
  expectRulesSound(reorderRules(), T, "reorder-uniform-scale-rot");
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, reorderRules());
  EXPECT_TRUE(G.representsTerm(
      Root, tRotate(10, 20, 30, tScale(2, 2, 2, tUnit()))));
}

TEST(RuleSoundness, NonUniformScaleRotateDoesNotCommute) {
  TermPtr T = tScale(2, 1, 1, tRotate(0, 0, 90, tUnit()));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, reorderRules());
  EXPECT_FALSE(G.representsTerm(
      Root, tRotate(0, 0, 90, tScale(2, 1, 1, tUnit()))));
}

TEST(RuleSoundness, FoldIntroAndExtension) {
  TermPtr A = tTranslate(2, 0, 0, tUnit());
  TermPtr B = tTranslate(4, 0, 0, tUnit());
  TermPtr C = tTranslate(6, 0, 0, tUnit());
  TermPtr T = tUnion(A, tUnion(B, C));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, foldRules());
  // The full fold over [A; B; C] must be represented.
  TermPtr Folded =
      tFold(tOpRef(OpKind::Union), tEmpty(), tList({A, B, C}));
  EXPECT_TRUE(G.representsTerm(Root, Folded));
}

TEST(RuleSoundness, FoldIntroAddsAWholeRightSpineAtOnce) {
  // Each union gets its spine's maximal list in one step, consed onto the
  // inner union's list: the chain saturates without a second growth
  // iteration, and shared suffixes keep the graph linear in n (growing one
  // element per iteration kept every prefix variant, ~n^2/2 Cons nodes).
  std::vector<TermPtr> Cubes;
  for (int I = 0; I < 300; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  EGraph G;
  EClassId Root = G.addTerm(tUnionAll(Cubes));
  RunnerReport Report = Runner().run(G, foldRules());
  EXPECT_EQ(Report.Stop, StopReason::Saturated);
  EXPECT_LE(Report.numIterations(), 2u);
  EXPECT_TRUE(G.representsTerm(
      Root, tFold(tOpRef(OpKind::Union), tEmpty(), tList(Cubes))));
  std::vector<TermPtr> Rest(Cubes.begin() + 1, Cubes.end());
  EXPECT_FALSE(G.representsTerm(
      Root, tFold(tOpRef(OpKind::Union), tEmpty(),
                  tList({Cubes[0], tUnionAll(Rest)}))));
  EXPECT_LT(G.numNodes(), 8 * Cubes.size());
}

TEST(RuleSoundness, FoldIntroEndsItsWalkAtAUnionCycle) {
  // Merging Union(a, a) into a (what union-idem does) leaves a class that
  // is its own right operand. The spine walk must end there, not loop.
  // (Saturating such a graph does not terminate: fold-cons-right grows
  // [a, ..., a] without bound, which is why the synthesizer dedupes union
  // operands before building its graph. One application is the test.)
  TermPtr A = tTranslate(2, 0, 0, tUnit());
  TermPtr B = tTranslate(4, 0, 0, tUnit());
  EGraph G;
  EClassId Root = G.addTerm(tUnion(B, tUnion(A, A)));
  G.merge(G.addTerm(tUnion(A, A)), G.addTerm(A));
  G.rebuild();
  const Rewrite FoldIntro = foldRules().front();
  ASSERT_EQ(FoldIntro.name(), "fold-intro");
  EXPECT_EQ(FoldIntro.run(G), 2u);
  EXPECT_TRUE(G.representsTerm(
      Root, tFold(tOpRef(OpKind::Union), tEmpty(), tList({B, A, A}))));
}

TEST(RuleSoundness, FoldHandlesLeftNestedUnions) {
  TermPtr A = tTranslate(2, 0, 0, tUnit());
  TermPtr B = tTranslate(4, 0, 0, tUnit());
  TermPtr C = tTranslate(6, 0, 0, tUnit());
  TermPtr T = tUnion(tUnion(A, B), C); // left-nested
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, foldRules());
  TermPtr Folded =
      tFold(tOpRef(OpKind::Union), tEmpty(), tList({C, A, B}));
  EXPECT_TRUE(G.representsTerm(Root, Folded));
}

TEST(RuleSoundness, FoldConcatNormalizesMixedShapes) {
  // Union of two unions: fold-fold-concat plus concat normalization must
  // produce a single fold over a flat 4-element spine.
  TermPtr Xs[4];
  for (int I = 0; I < 4; ++I)
    Xs[I] = tTranslate(2.0 * I, 0, 0, tUnit());
  TermPtr T = tUnion(tUnion(Xs[0], Xs[1]), tUnion(Xs[2], Xs[3]));
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner(RunnerLimits{.IterLimit = 8}).run(G, foldRules());

  // Some 4-element ordering must be represented as a pure Cons spine.
  bool Found = false;
  std::vector<std::vector<int>> Orders = {
      {0, 1, 2, 3}, {2, 3, 0, 1}, {3, 0, 1, 2}, {2, 0, 1, 3}, {3, 2, 0, 1}};
  for (const auto &Order : Orders) {
    std::vector<TermPtr> L;
    for (int I : Order)
      L.push_back(Xs[I]);
    Found |= G.representsTerm(
        Root, tFold(tOpRef(OpKind::Union), tEmpty(), tList(L)));
  }
  EXPECT_TRUE(Found);
}

TEST(RuleSoundness, BooleanLaws) {
  TermPtr T = tUnion(tUnit(), tUnit());
  EGraph G;
  EClassId Root = G.addTerm(T);
  Runner().run(G, booleanRules());
  EXPECT_TRUE(G.representsTerm(Root, tUnit())); // idempotence

  TermPtr T2 = tDiff(tDiff(tSphere(), tUnit()), tCylinder());
  EGraph G2;
  EClassId Root2 = G2.addTerm(T2);
  Runner().run(G2, booleanRules());
  EXPECT_TRUE(G2.representsTerm(
      Root2, tDiff(tSphere(), tUnion(tUnit(), tCylinder()))));
}

TEST(RuleSoundness, IdentityElimination) {
  EGraph G;
  EClassId Root = G.addTerm(
      tTranslate(0, 0, 0, tScale(1, 1, 1, tRotate(0, 0, 0, tSphere()))));
  Runner().run(G, identityRules());
  EXPECT_TRUE(G.representsTerm(Root, tSphere()));
}

//===----------------------------------------------------------------------===//
// Property test: the whole database on random models
//===----------------------------------------------------------------------===//

class RuleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RuleFuzzTest, AllRulesPreserveGeometryOnRandomModels) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  TermPtr Input = randomFlatCsg(R, 3);
  expectRulesSound(allRewrites(), Input, "fuzz");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzzTest, ::testing::Range(0, 24));

TEST(RuleDatabase, HasPaperScaleRuleCount) {
  // The paper reports 40 rewrites across its four categories; our database
  // (including the boolean laws the paper bundles in plus the LambdaCAD
  // list algebra) is the same order of magnitude and at least as strong.
  EXPECT_GE(allRewrites().size(), 40u);
  EXPECT_LE(allRewrites().size(), 55u);
}

TEST(RuleSoundness, ListAlgebra) {
  // Fold over a singleton collapses; Repeat grows out of literal spines.
  EGraph G;
  TermPtr X = tTranslate(1, 2, 3, tUnit());
  EClassId Root = G.addTerm(
      tFold(tOpRef(OpKind::Union), tEmpty(), tCons(X, tNil())));
  EClassId XId = G.addTerm(X);
  Runner().run(G, listAlgebraRules());
  EXPECT_EQ(G.find(Root), G.find(XId));

  EGraph G2;
  EClassId Spine = G2.addTerm(tCons(X, tCons(X, tCons(X, tNil()))));
  Runner().run(G2, listAlgebraRules());
  EXPECT_TRUE(G2.representsTerm(Spine, tRepeat(X, tInt(3))));

  EGraph G3;
  EClassId Zero = G3.addTerm(tRepeat(X, tInt(0)));
  EClassId Nil = G3.addTerm(tNil());
  Runner().run(G3, listAlgebraRules());
  EXPECT_EQ(G3.find(Zero), G3.find(Nil));
}

TEST(RuleDatabase, NamesAreUnique) {
  std::vector<Rewrite> Rules = allRewrites();
  for (size_t I = 0; I < Rules.size(); ++I)
    for (size_t J = I + 1; J < Rules.size(); ++J)
      EXPECT_NE(Rules[I].name(), Rules[J].name());
}
