//===-- tests/egraph_test.cpp - E-graph engine tests ----------------------===//

#include "egraph/EGraph.h"
#include "egraph/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace shrinkray;

TEST(UnionFindTest, SingletonsAreTheirOwnRoots) {
  UnionFind UF;
  EClassId A = UF.makeSet(), B = UF.makeSet();
  EXPECT_EQ(UF.find(A), A);
  EXPECT_EQ(UF.find(B), B);
  EXPECT_NE(A, B);
}

TEST(UnionFindTest, UniteRedirectsChild) {
  UnionFind UF;
  EClassId A = UF.makeSet(), B = UF.makeSet(), C = UF.makeSet();
  UF.unite(A, B);
  UF.unite(A, C);
  EXPECT_EQ(UF.find(B), A);
  EXPECT_EQ(UF.find(C), A);
}

TEST(UnionFindTest, PathHalvingPreservesRoots) {
  UnionFind UF;
  std::vector<EClassId> Ids;
  for (int I = 0; I < 64; ++I)
    Ids.push_back(UF.makeSet());
  for (int I = 1; I < 64; ++I)
    UF.unite(UF.find(Ids[0]), UF.find(Ids[I]));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(UF.find(Ids[I]), Ids[0]);
}

TEST(EGraphTest, HashConsingDeduplicates) {
  EGraph G;
  EClassId A = G.addTerm(tTranslate(1, 2, 3, tUnit()));
  EClassId B = G.addTerm(tTranslate(1, 2, 3, tUnit()));
  EXPECT_EQ(A, B);
}

TEST(EGraphTest, DistinctTermsGetDistinctClasses) {
  EGraph G;
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  EXPECT_NE(G.find(A), G.find(B));
}

TEST(EGraphTest, SharedSubtermsShareClasses) {
  EGraph G;
  G.addTerm(tUnion(tUnit(), tUnit()));
  // Unit, Union: 2 classes only.
  EXPECT_EQ(G.numClasses(), 2u);
}

TEST(EGraphTest, MergeUnifiesFind) {
  EGraph G;
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  auto [Root, Changed] = G.merge(A, B);
  EXPECT_TRUE(Changed);
  G.rebuild();
  EXPECT_EQ(G.find(A), G.find(B));
  EXPECT_EQ(G.find(Root), G.find(A));
  // Merging again is a no-op.
  EXPECT_FALSE(G.merge(A, B).second);
}

TEST(EGraphTest, CongruenceClosure) {
  // f(a) and f(b) become equal when a = b. Use Translate(v, .) as `f`.
  EGraph G;
  TermPtr Va = tVec3(1, 2, 3);
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  EClassId Fa = G.addTerm(tTranslate(Va, tUnit()));
  EClassId Fb = G.addTerm(tTranslate(Va, tSphere()));
  EXPECT_NE(G.find(Fa), G.find(Fb));
  G.merge(A, B);
  G.rebuild();
  EXPECT_EQ(G.find(Fa), G.find(Fb));
}

TEST(EGraphTest, CongruenceClosureCascades) {
  // g(f(a)) == g(f(b)) after a = b: two levels of upward propagation.
  EGraph G;
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  EClassId Gfa = G.addTerm(tScale(2, 2, 2, tTranslate(1, 0, 0, tUnit())));
  EClassId Gfb = G.addTerm(tScale(2, 2, 2, tTranslate(1, 0, 0, tSphere())));
  G.merge(A, B);
  G.rebuild();
  EXPECT_EQ(G.find(Gfa), G.find(Gfb));
}

TEST(EGraphTest, RepresentsTermAfterMerge) {
  EGraph G;
  EClassId A = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId B = G.addTerm(tUnion(tSphere(), tUnit()));
  G.merge(A, B);
  G.rebuild();
  EXPECT_TRUE(G.representsTerm(A, tUnion(tUnit(), tSphere())));
  EXPECT_TRUE(G.representsTerm(A, tUnion(tSphere(), tUnit())));
  EXPECT_FALSE(G.representsTerm(A, tUnion(tUnit(), tUnit())));
}

TEST(EGraphTest, LookupFindsCanonicalNode) {
  EGraph G;
  EClassId U = G.addTerm(tUnit());
  EClassId S = G.addTerm(tSphere());
  ENode Node(Op(OpKind::Union), {U, S});
  EXPECT_FALSE(G.lookup(Node).has_value());
  EClassId Added = G.add(Node);
  ASSERT_TRUE(G.lookup(Node).has_value());
  EXPECT_EQ(*G.lookup(Node), Added);
}

TEST(EGraphTest, NodeCountsAfterMergeAndRebuild) {
  EGraph G;
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  size_t Before = G.numClasses();
  G.merge(A, B);
  G.rebuild();
  EXPECT_EQ(G.numClasses(), Before - 1);
}

TEST(EGraphAnalysisTest, LiteralsAreConstants) {
  EGraph G;
  EClassId F = G.addTerm(tFloat(2.5));
  EClassId I = G.addTerm(tInt(7));
  EXPECT_EQ(G.data(F).NumConst, 2.5);
  EXPECT_FALSE(G.data(F).NumIsInt);
  EXPECT_EQ(G.data(I).NumConst, 7.0);
  EXPECT_TRUE(G.data(I).NumIsInt);
}

TEST(EGraphAnalysisTest, ArithmeticFolds) {
  EGraph G;
  EClassId Sum = G.addTerm(tAdd(tFloat(2.0), tFloat(3.0)));
  ASSERT_TRUE(G.data(Sum).NumConst.has_value());
  EXPECT_DOUBLE_EQ(*G.data(Sum).NumConst, 5.0);
  EClassId Prod = G.addTerm(tMul(tInt(4), tInt(5)));
  EXPECT_DOUBLE_EQ(*G.data(Prod).NumConst, 20.0);
  EXPECT_TRUE(G.data(Prod).NumIsInt);
}

TEST(EGraphAnalysisTest, FoldedConstantMaterializesLiteral) {
  EGraph G;
  EClassId Sum = G.addTerm(tAdd(tFloat(2.0), tFloat(3.0)));
  G.rebuild();
  // The class should also contain the literal 5 node.
  EXPECT_TRUE(G.representsTerm(Sum, tFloat(5.0)) ||
              G.representsTerm(Sum, tInt(5)));
}

TEST(EGraphAnalysisTest, IntegralFloatMergesWithInt) {
  EGraph G;
  EClassId F = G.addTerm(tFloat(3.0));
  EClassId I = G.addTerm(tInt(3));
  G.rebuild();
  // modify() materializes Int(3) into the Float(3.0) class, unifying them.
  EXPECT_EQ(G.find(F), G.find(I));
}

TEST(EGraphAnalysisTest, ConstantPropagatesThroughMerge) {
  EGraph G;
  // x (non-const Var) merged with 4.0: the class becomes constant.
  EClassId X = G.addTerm(tVar("x"));
  EClassId C = G.addTerm(tFloat(4.0));
  EXPECT_FALSE(G.data(X).NumConst.has_value());
  G.merge(X, C);
  G.rebuild();
  EXPECT_TRUE(G.data(X).NumConst.has_value());
  EXPECT_DOUBLE_EQ(*G.data(X).NumConst, 4.0);
}

TEST(EGraphAnalysisTest, UpwardPropagationAfterMerge) {
  EGraph G;
  // Add(x, 1.0) becomes constant once x = 2.0.
  EClassId Sum = G.addTerm(tAdd(tVar("x"), tFloat(1.0)));
  EXPECT_FALSE(G.data(Sum).NumConst.has_value());
  G.merge(G.addTerm(tVar("x")), G.addTerm(tFloat(2.0)));
  G.rebuild();
  ASSERT_TRUE(G.data(Sum).NumConst.has_value());
  EXPECT_DOUBLE_EQ(*G.data(Sum).NumConst, 3.0);
}

TEST(EGraphAnalysisTest, DivByZeroDoesNotFold) {
  EGraph G;
  EClassId D = G.addTerm(tDiv(tFloat(1.0), tFloat(0.0)));
  EXPECT_FALSE(G.data(D).NumConst.has_value());
}

TEST(EGraphAnalysisTest, TrigFolds) {
  EGraph G;
  EClassId S = G.addTerm(tSin(tFloat(90.0)));
  ASSERT_TRUE(G.data(S).NumConst.has_value());
  EXPECT_NEAR(*G.data(S).NumConst, 1.0, 1e-12);
}

TEST(EGraphTest, DumpMentionsClassesAndConstants) {
  EGraph G;
  G.addTerm(tAdd(tFloat(1.0), tFloat(2.0)));
  G.rebuild();
  std::string D = G.dump();
  EXPECT_NE(D.find("class"), std::string::npos);
  EXPECT_NE(D.find("const 3"), std::string::npos);
}

TEST(EGraphTest, StressManyMergesStaysConsistent) {
  // Chain of Translates; merge leaves pairwise and verify congruence
  // collapses the towers.
  EGraph G;
  std::vector<EClassId> Leaves;
  std::vector<EClassId> Towers;
  for (int I = 0; I < 20; ++I) {
    TermPtr Leaf = tTranslate(I, 0, 0, tUnit());
    Leaves.push_back(G.addTerm(Leaf));
    Towers.push_back(G.addTerm(tScale(2, 2, 2, Leaf)));
  }
  for (int I = 1; I < 20; ++I)
    G.merge(Leaves[0], Leaves[I]);
  G.rebuild();
  for (int I = 1; I < 20; ++I)
    EXPECT_EQ(G.find(Towers[0]), G.find(Towers[I]));
}

//===----------------------------------------------------------------------===//
// Flat store: inline and spilled children, the node table, deep terms
//===----------------------------------------------------------------------===//

TEST(ENodeTest, WideNodesSpillAndCopyDeeply) {
  const std::vector<EClassId> Kids{1, 2, 3, 4, 5, 6, 7};
  ENode A(Op(OpKind::App), Kids);
  ASSERT_EQ(A.arity(), 7u);
  EXPECT_EQ(std::vector<EClassId>(A.children().begin(), A.children().end()),
            Kids);
  ENode B = A; // deep copy: B's spilled children are its own
  B.setChild(6, 9);
  EXPECT_EQ(A.child(6), 7u);
  EXPECT_NE(A, B);
  B.setChild(6, 7);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  ENode C = std::move(B);
  EXPECT_EQ(C, A);
  ENode Narrow(Op(OpKind::Union), {4, 5});
  Narrow = C; // inline <- spilled
  EXPECT_EQ(Narrow, A);
  Narrow = ENode(Op(OpKind::Union), {4, 5}); // spilled <- inline
  EXPECT_EQ(Narrow.arity(), 2u);
  EXPECT_EQ(Narrow.child(1), 5u);
  // Arity is part of identity: a prefix of the children is another node.
  EXPECT_NE(ENode(Op(OpKind::App), Kids.data(), 6), A);
}

TEST(EGraphStoreTest, WideNodesThroughMergeAndRebuild) {
  EGraph G;
  std::vector<EClassId> Leaf;
  for (int I = 0; I < 8; ++I)
    Leaf.push_back(
        G.add(ENode(Op::makeVar(Symbol("w" + std::to_string(I))), {})));
  // Two 7-ary applications that differ only in their last argument, and a
  // 7-ary function over one of them.
  std::vector<EClassId> KidsA(Leaf.begin(), Leaf.begin() + 7);
  std::vector<EClassId> KidsB = KidsA;
  KidsB.back() = Leaf[7];
  EClassId WideA = G.add(ENode(Op(OpKind::App), KidsA));
  EClassId WideB = G.add(ENode(Op(OpKind::App), KidsB));
  std::vector<EClassId> FunKids(Leaf.begin(), Leaf.begin() + 6);
  FunKids.push_back(WideA);
  EClassId Fun = G.add(ENode(Op(OpKind::Fun), FunKids));
  EXPECT_NE(G.find(WideA), G.find(WideB));
  EXPECT_EQ(G.lookup(ENode(Op(OpKind::App), KidsB)), G.find(WideB));
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  // Merging the differing leaves makes the applications congruent.
  G.merge(Leaf[6], Leaf[7]);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");
  EXPECT_EQ(G.find(WideA), G.find(WideB));
  EXPECT_EQ(G.eclass(WideA).Nodes.size(), 1u);

  // Leaf 0 is referenced by the merged application once and by the
  // function once; the dropped twin no longer shows.
  std::vector<EClassId> ParentClasses;
  for (ENodeId P : G.canonicalParents(Leaf[0])) {
    EXPECT_EQ(G.node(P).arity(), 7u);
    ParentClasses.push_back(G.nodeClass(P));
  }
  std::sort(ParentClasses.begin(), ParentClasses.end());
  std::vector<EClassId> Want{G.find(WideA), G.find(Fun)};
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(ParentClasses, Want);
  EXPECT_EQ(G.lookup(ENode(Op(OpKind::App), KidsA)), G.find(WideB));
  EXPECT_EQ(G.lookup(ENode(Op(OpKind::Fun), FunKids)), G.find(Fun));
}

TEST(EGraphStoreTest, AddTermOfA300000DeepChainDoesNotRecurse) {
  // Terms built in code are not depth-bounded by the parsers.
  constexpr int Depth = 300000;
  TermPtr T = tUnit();
  for (int I = 0; I < Depth; ++I)
    T = tUnion(T, tSphere());
  EGraph G;
  EClassId Root = G.addTerm(T);
  G.rebuild();
  EXPECT_EQ(G.numClasses(), static_cast<size_t>(Depth) + 2);
  EXPECT_EQ(G.eclass(Root).Nodes.size(), 1u);
  EXPECT_EQ(G.node(G.eclass(Root).Nodes[0]).kind(), OpKind::Union);
  EXPECT_EQ(G.addTerm(T), Root); // hash-consed on the second pass
}
