//===-- tests/term_test.cpp - Term construction and metrics ---------------===//

#include "cad/Term.h"

#include <gtest/gtest.h>

using namespace shrinkray;

TEST(OpTest, PayloadEquality) {
  EXPECT_EQ(Op::makeFloat(2.5), Op::makeFloat(2.5));
  EXPECT_NE(Op::makeFloat(2.5), Op::makeFloat(2.6));
  EXPECT_EQ(Op::makeInt(3), Op::makeInt(3));
  EXPECT_NE(Op::makeInt(3), Op::makeFloat(3.0)); // Int and Float differ
  EXPECT_EQ(Op::makeVar(Symbol("i")), Op::makeVar(Symbol("i")));
  EXPECT_NE(Op::makeVar(Symbol("i")), Op::makeVar(Symbol("j")));
}

TEST(OpTest, NegativeZeroCanonicalized) {
  EXPECT_EQ(Op::makeFloat(-0.0), Op::makeFloat(0.0));
  EXPECT_EQ(Op::makeFloat(-0.0).hash(), Op::makeFloat(0.0).hash());
}

TEST(OpTest, ArityTable) {
  EXPECT_EQ(opArity(OpKind::Unit), 0);
  EXPECT_EQ(opArity(OpKind::Sin), 1);
  EXPECT_EQ(opArity(OpKind::Union), 2);
  EXPECT_EQ(opArity(OpKind::Fold), 3);
  EXPECT_EQ(opArity(OpKind::Vec3Ctor), 3);
  EXPECT_EQ(opArity(OpKind::Fun), -1);
  EXPECT_EQ(opArity(OpKind::App), -1);
}

TEST(OpTest, NameRoundTrip) {
  for (unsigned I = 0; I < NumOpKinds; ++I) {
    OpKind K = static_cast<OpKind>(I);
    OpKind Back;
    ASSERT_TRUE(opKindFromName(opName(K), Back)) << opName(K);
    EXPECT_EQ(K, Back);
  }
}

TEST(OpTest, OpRefReferences) {
  EXPECT_EQ(Op::makeOpRef(OpKind::Union).referencedOp(), OpKind::Union);
  EXPECT_EQ(Op::makeOpRef(OpKind::Diff).referencedOp(), OpKind::Diff);
}

TEST(TermTest, SizeCountsUnrolledNodes) {
  // Translate(Vec3(f,f,f), Unit): 1 + (1+3) + 1 = 6 nodes.
  TermPtr T = tTranslate(1, 2, 3, tUnit());
  EXPECT_EQ(termSize(T), 6u);
}

TEST(TermTest, SizeUnrollsSharedSubtrees) {
  TermPtr Shared = tTranslate(1, 2, 3, tUnit());
  TermPtr U = tUnion(Shared, Shared);
  EXPECT_EQ(termSize(U), 1 + 2 * termSize(Shared));
}

TEST(TermTest, DepthOfLeafIsOne) { EXPECT_EQ(termDepth(tUnit()), 1u); }

TEST(TermTest, DepthOfNested) {
  TermPtr T = tUnion(tTranslate(1, 2, 3, tUnit()), tUnit());
  // Union -> Translate -> Unit gives 3; the Vec3 branch gives Union ->
  // Translate -> Vec3 -> Float = 4.
  EXPECT_EQ(termDepth(T), 4u);
}

TEST(TermTest, PrimitiveCount) {
  TermPtr T = tUnion(tUnit(), tDiff(tSphere(), tCylinder()));
  EXPECT_EQ(termPrimitives(T), 3u);
  EXPECT_EQ(termPrimitives(tEmpty()), 0u);
  EXPECT_EQ(termPrimitives(tExternal("Hull1")), 1u);
}

TEST(TermTest, StructuralEquality) {
  TermPtr A = tTranslate(1, 2, 3, tUnit());
  TermPtr B = tTranslate(1, 2, 3, tUnit());
  TermPtr C = tTranslate(1, 2, 4, tUnit());
  EXPECT_TRUE(termEquals(A, B));
  EXPECT_FALSE(termEquals(A, C));
  EXPECT_EQ(termHash(A), termHash(B));
}

TEST(TermTest, ApproxEquality) {
  TermPtr A = tTranslate(1, 2, 3, tUnit());
  TermPtr B = tTranslate(1.0005, 2, 3, tUnit());
  EXPECT_TRUE(termApproxEquals(A, B, 1e-3));
  EXPECT_FALSE(termApproxEquals(A, B, 1e-6));
}

TEST(TermTest, ApproxEqualityCrossesIntFloat) {
  EXPECT_TRUE(termApproxEquals(tInt(3), tFloat(3.0), 1e-9));
}

TEST(TermTest, IsFlatCsgAcceptsFlatModels) {
  TermPtr T = tDiff(tScale(2, 2, 1, tCylinder()),
                    tTranslate(0, 0, -1, tUnit()));
  EXPECT_TRUE(isFlatCsg(T));
}

TEST(TermTest, IsFlatCsgRejectsLoops) {
  TermPtr T = tFold(tOpRef(OpKind::Union), tEmpty(),
                    tRepeat(tUnit(), tInt(3)));
  EXPECT_FALSE(isFlatCsg(T));
}

TEST(TermTest, IsFlatCsgRejectsSymbolicVectors) {
  TermPtr T = tTranslate(tVec3(tVar("i"), tFloat(0), tFloat(0)), tUnit());
  EXPECT_FALSE(isFlatCsg(T));
}

TEST(TermTest, IsFlatCsgWalksA200000DeepChainIteratively) {
  // The service checks every submitted term; a recursive walk overflowed
  // the stack on chains this deep.
  // Left-nested, so the deep side is not the last operand either.
  TermPtr Chain = tUnit();
  for (int I = 0; I < 200000; ++I)
    Chain = tUnion(Chain, tTranslate(I, 0, 0, tUnit()));
  EXPECT_TRUE(isFlatCsg(Chain));
  // One non-flat leaf at the very bottom still rejects the whole chain.
  TermPtr Bad = tVar("i");
  for (int I = 0; I < 200000; ++I)
    Bad = tUnion(Bad, tTranslate(I, 0, 0, tUnit()));
  EXPECT_FALSE(isFlatCsg(Bad));
}

TEST(TermTest, ContainsLoopDetectsCombinators) {
  EXPECT_TRUE(containsLoop(tRepeat(tUnit(), tInt(2))));
  EXPECT_TRUE(containsLoop(
      tMapi(tFun({tVar("i"), tVar("c"), tVar("c")}), tNil())));
  EXPECT_FALSE(containsLoop(tUnion(tUnit(), tSphere())));
}

TEST(TermTest, UnionAllBuildsRightNest) {
  std::vector<TermPtr> Items = {tUnit(), tSphere(), tCylinder()};
  TermPtr U = tUnionAll(Items);
  ASSERT_EQ(U->kind(), OpKind::Union);
  EXPECT_EQ(U->child(0)->kind(), OpKind::Unit);
  ASSERT_EQ(U->child(1)->kind(), OpKind::Union);
  EXPECT_EQ(U->child(1)->child(1)->kind(), OpKind::Cylinder);
}

TEST(TermTest, DroppingA300000DeepChainDoesNotRecurse) {
  // Releasing the last reference to a long spine used to run one nested
  // ~Term per level and overflow the stack; release is now iterative.
  const uint64_t LiveBefore = termInternStats().Live;
  {
    TermPtr Chain = tUnit();
    for (int I = 0; I < 300000; ++I)
      Chain = tUnion(tTranslate(I, 0, 0, tUnit()), Chain);
    EXPECT_GT(Chain->depth(), 300000u);
    EXPECT_GT(termInternStats().Live, LiveBefore + 300000);
  }
  EXPECT_EQ(termInternStats().Live, LiveBefore);
}

TEST(TermTest, UnionAllOfEmptyListIsEmpty) {
  EXPECT_EQ(tUnionAll({})->kind(), OpKind::Empty);
}

TEST(TermTest, UnionAllOfSingletonIsElement) {
  EXPECT_EQ(tUnionAll({tSphere()})->kind(), OpKind::Sphere);
}

TEST(TermTest, ListBuildsConsSpine) {
  TermPtr L = tList({tInt(1), tInt(2)});
  ASSERT_EQ(L->kind(), OpKind::Cons);
  EXPECT_EQ(L->child(0)->op().intValue(), 1);
  ASSERT_EQ(L->child(1)->kind(), OpKind::Cons);
  EXPECT_EQ(L->child(1)->child(1)->kind(), OpKind::Nil);
}

TEST(TermTest, IndexList) {
  TermPtr L = tIndexList(3);
  ASSERT_EQ(L->kind(), OpKind::Cons);
  EXPECT_EQ(L->child(0)->op().intValue(), 0);
  EXPECT_EQ(L->child(1)->child(0)->op().intValue(), 1);
  EXPECT_EQ(L->child(1)->child(1)->child(0)->op().intValue(), 2);
  EXPECT_EQ(tIndexList(0)->kind(), OpKind::Nil);
}
