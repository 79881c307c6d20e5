//===-- tests/pattern_test.cpp - E-matching tests -------------------------===//

#include "egraph/Pattern.h"
#include "egraph/Rewrite.h"

#include <gtest/gtest.h>

using namespace shrinkray;

TEST(PatternTest, CollectsVarsInOrder) {
  Pattern P = Pattern::parse("(Union (Translate ?v ?a) (Translate ?v ?b))");
  ASSERT_EQ(P.vars().size(), 3u);
  EXPECT_EQ(P.vars()[0].str(), "v");
  EXPECT_EQ(P.vars()[1].str(), "a");
  EXPECT_EQ(P.vars()[2].str(), "b");
}

TEST(PatternTest, GroundPatternMatchesItself) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Pattern P = Pattern::parse("(Union Unit Sphere)");
  EXPECT_EQ(P.matchClass(G, Root).size(), 1u);
}

TEST(PatternTest, VariableBindsClass) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId UnitId = G.addTerm(tUnit());
  G.rebuild();
  Pattern P = Pattern::parse("(Union ?x ?y)");
  auto Matches = P.matchClass(G, Root);
  ASSERT_EQ(Matches.size(), 1u);
  EXPECT_EQ(G.find(Matches[0][Symbol("x")]), G.find(UnitId));
}

TEST(PatternTest, NonlinearVariableRequiresEquality) {
  EGraph G;
  EClassId Same = G.addTerm(tUnion(tUnit(), tUnit()));
  EClassId Diff = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Pattern P = Pattern::parse("(Union ?x ?x)");
  EXPECT_EQ(P.matchClass(G, Same).size(), 1u);
  EXPECT_EQ(P.matchClass(G, Diff).size(), 0u);
}

TEST(PatternTest, NonlinearMatchesAfterMerge) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Pattern P = Pattern::parse("(Union ?x ?x)");
  EXPECT_EQ(P.matchClass(G, Root).size(), 0u);
  G.merge(G.addTerm(tUnit()), G.addTerm(tSphere()));
  G.rebuild();
  EXPECT_EQ(P.matchClass(G, Root).size(), 1u);
}

TEST(PatternTest, MultipleNodesGiveMultipleMatches) {
  EGraph G;
  EClassId A = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId B = G.addTerm(tUnion(tSphere(), tUnit()));
  G.merge(A, B);
  G.rebuild();
  Pattern P = Pattern::parse("(Union ?x ?y)");
  // The class now holds two Union nodes; both match.
  EXPECT_EQ(P.matchClass(G, A).size(), 2u);
}

TEST(PatternTest, SearchScansWholeGraph) {
  EGraph G;
  G.addTerm(tUnion(tUnit(), tUnion(tSphere(), tCylinder())));
  G.rebuild();
  Pattern P = Pattern::parse("(Union ?x ?y)");
  EXPECT_EQ(P.search(G).size(), 2u);
}

TEST(PatternTest, MatchesThroughDeepStructure) {
  EGraph G;
  EClassId Root = G.addTerm(
      tUnion(tTranslate(1, 2, 3, tUnit()), tTranslate(1, 2, 3, tSphere())));
  G.rebuild();
  Pattern P = Pattern::parse("(Union (Translate ?v ?a) (Translate ?v ?b))");
  auto Matches = P.matchClass(G, Root);
  ASSERT_EQ(Matches.size(), 1u);
  // ?v bound to the shared (hash-consed) vector class.
  EClassId V = Matches[0][Symbol("v")];
  EXPECT_TRUE(G.representsTerm(V, tVec3(1, 2, 3)));
}

TEST(PatternTest, RejectsWhenVectorsDiffer) {
  EGraph G;
  EClassId Root = G.addTerm(
      tUnion(tTranslate(1, 2, 3, tUnit()), tTranslate(9, 9, 9, tSphere())));
  G.rebuild();
  Pattern P = Pattern::parse("(Union (Translate ?v ?a) (Translate ?v ?b))");
  EXPECT_EQ(P.matchClass(G, Root).size(), 0u);
}

TEST(PatternTest, InstantiateBuildsTerm) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Pattern Lhs = Pattern::parse("(Union ?x ?y)");
  Pattern Rhs = Pattern::parse("(Inter ?y ?x)");
  auto Matches = Lhs.matchClass(G, Root);
  ASSERT_EQ(Matches.size(), 1u);
  EClassId New = Rhs.instantiate(G, Matches[0]);
  G.rebuild();
  EXPECT_TRUE(G.representsTerm(New, tInter(tSphere(), tUnit())));
}

TEST(RewriteTest, SimpleRuleMergesClasses) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Rewrite Comm("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  EXPECT_EQ(Comm.run(G), 1u);
  EXPECT_TRUE(G.representsTerm(Root, tUnion(tSphere(), tUnit())));
  // Second run: the swapped node already exists; idempotent.
  EXPECT_EQ(Comm.run(G), 0u);
}

TEST(RewriteTest, VarOnlyRhsMergesWithChild) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tUnit()));
  EClassId UnitId = G.addTerm(tUnit());
  G.rebuild();
  Rewrite Idem("idem", "(Union ?a ?a)", "?a");
  EXPECT_EQ(Idem.run(G), 1u);
  EXPECT_EQ(G.find(Root), G.find(UnitId));
}

TEST(RewriteTest, GuardBlocksApplication) {
  EGraph G;
  G.addTerm(tTranslate(tVec3(tVar("x"), tFloat(0), tFloat(0)), tUnit()));
  G.rebuild();
  Rewrite R("needs-const", "(Translate (Vec3 ?x ?y ?z) ?c)", "?c",
            areConst({"x", "y", "z"}));
  EXPECT_EQ(R.search(G).size(), 0u);
}

TEST(RewriteTest, GuardAdmitsConstants) {
  EGraph G;
  G.addTerm(tTranslate(0, 0, 0, tUnit()));
  G.rebuild();
  Rewrite R("needs-const", "(Translate (Vec3 ?x ?y ?z) ?c)", "?c",
            areConst({"x", "y", "z"}));
  EXPECT_EQ(R.search(G).size(), 1u);
}

TEST(RewriteTest, ApplierComputesRhs) {
  // A rule that replaces Add(?a, ?b) of constants with the folded literal
  // (mirrors what analysis does, but through the applier path).
  EGraph G;
  EClassId Root = G.addTerm(tAdd(tFloat(2.0), tFloat(2.5)));
  G.rebuild();
  Rewrite R("fold-add", "(Add ?a ?b)",
            [](EGraph &G2, EClassId, const Subst &S) -> std::optional<EClassId> {
              if (!G2.data(S[Symbol("a")]).NumConst ||
                  !G2.data(S[Symbol("b")]).NumConst)
                return std::nullopt;
              double V = *G2.data(S[Symbol("a")]).NumConst +
                         *G2.data(S[Symbol("b")]).NumConst;
              return G2.add(ENode(Op::makeFloat(V), {}));
            });
  R.run(G);
  EXPECT_TRUE(G.representsTerm(Root, tFloat(4.5)));
}

TEST(RewriteTest, ConstValueHelper) {
  EGraph G;
  G.addTerm(tTranslate(1, 2, 3, tUnit()));
  G.rebuild();
  Pattern P = Pattern::parse("(Translate (Vec3 ?x ?y ?z) ?c)");
  auto Matches = P.search(G);
  ASSERT_EQ(Matches.size(), 1u);
  EXPECT_DOUBLE_EQ(constValue(G, Matches[0].second, Symbol("y")), 2.0);
}
