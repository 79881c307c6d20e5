//===-- tests/determinize_test.cpp - Determinizer & list-manip tests ------===//

#include "synth/Determinize.h"
#include "synth/Inference.h"
#include "synth/ListManip.h"

#include "egraph/Runner.h"
#include "rewrites/Rules.h"

#include <gtest/gtest.h>

using namespace shrinkray;

namespace {

/// Builds an e-graph containing a Fold over the given elements and returns
/// (graph is an out-param) the fold and list class ids.
struct FoldFixture {
  EGraph G;
  EClassId FoldClass = 0, ListClass = 0;

  explicit FoldFixture(const std::vector<TermPtr> &Elements) {
    TermPtr List = tList(Elements);
    TermPtr Fold = tFold(tOpRef(OpKind::Union), tEmpty(), List);
    FoldClass = G.addTerm(Fold);
    ListClass = G.addTerm(List);
    G.rebuild();
  }
};

} // namespace

TEST(SpineTest, WalksConsSpine) {
  FoldFixture F({tUnit(), tSphere(), tCylinder()});
  auto Elems = spineElements(F.G, F.ListClass);
  ASSERT_TRUE(Elems.has_value());
  ASSERT_EQ(Elems->size(), 3u);
  EXPECT_TRUE(F.G.representsTerm((*Elems)[0], tUnit()));
  EXPECT_TRUE(F.G.representsTerm((*Elems)[2], tCylinder()));
}

TEST(SpineTest, EmptyListIsEmptySpine) {
  EGraph G;
  EClassId Nil = G.addTerm(tNil());
  G.rebuild();
  auto Elems = spineElements(G, Nil);
  ASSERT_TRUE(Elems.has_value());
  EXPECT_TRUE(Elems->empty());
}

TEST(SpineTest, NonSpineReturnsNullopt) {
  EGraph G;
  EClassId NotAList = G.addTerm(tUnit());
  G.rebuild();
  EXPECT_FALSE(spineElements(G, NotAList).has_value());
}

TEST(ChainTest, EnumeratesLayersDeepestFirst) {
  EGraph G;
  EClassId Elem = G.addTerm(
      tTranslate(1, 2, 3, tRotate(30, 0, 0, tScale(2, 2, 2, tUnit()))));
  G.rebuild();
  std::vector<AffineChain> Chains = enumerateChains(G, Elem);
  ASSERT_FALSE(Chains.empty());
  // Deepest decomposition first: Translate/Rotate/Scale over Unit.
  ASSERT_EQ(Chains[0].Layers.size(), 3u);
  EXPECT_EQ(Chains[0].Layers[0].Kind, OpKind::Translate);
  EXPECT_EQ(Chains[0].Layers[1].Kind, OpKind::Rotate);
  EXPECT_EQ(Chains[0].Layers[2].Kind, OpKind::Scale);
  EXPECT_TRUE(Chains[0].Layers[0].V.approxEquals({1, 2, 3}, 1e-12));
  EXPECT_TRUE(G.representsTerm(Chains[0].Base, tUnit()));
  // The trivial zero-layer chain is also present.
  EXPECT_EQ(Chains.back().Layers.size(), 0u);
}

TEST(ChainTest, SymbolicVectorsAreNotChains) {
  EGraph G;
  EClassId Elem = G.addTerm(
      tTranslate(tVec3(tVar("x"), tFloat(0), tFloat(0)), tUnit()));
  G.rebuild();
  std::vector<AffineChain> Chains = enumerateChains(G, Elem);
  // Only the stop-here chain: the vector is not constant.
  ASSERT_EQ(Chains.size(), 1u);
  EXPECT_TRUE(Chains[0].Layers.empty());
}

TEST(DeterminizeTest, UniformListDecomposes) {
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 4; ++I)
    Elems.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  const ChainDecomposition &D = Ds[0];
  ASSERT_EQ(D.numLayers(), 1u);
  EXPECT_EQ(D.LayerKinds[0], OpKind::Translate);
  ASSERT_EQ(D.numElements(), 4u);
  EXPECT_TRUE(F.G.representsTerm(D.Base, tUnit()));
  for (int I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(D.Vectors[0][I].X, 2.0 * I);
}

TEST(DeterminizeTest, MixedKindsFail) {
  // Translate vs Scale elements share no common decomposition.
  FoldFixture F({tTranslate(1, 0, 0, tUnit()), tScale(2, 2, 2, tUnit())});
  EXPECT_TRUE(determinize(F.G, F.ListClass).empty());
}

TEST(DeterminizeTest, DifferentBasesFail) {
  FoldFixture F({tTranslate(1, 0, 0, tUnit()),
                 tTranslate(2, 0, 0, tSphere())});
  EXPECT_TRUE(determinize(F.G, F.ListClass).empty());
}

TEST(DeterminizeTest, ConsistentOrderAcrossRewrittenElements) {
  // After reorder rewrites each element has several equivalent towers; the
  // determinizer must pick ONE kind-sequence consistent across elements.
  std::vector<TermPtr> Elems;
  for (int I = 1; I <= 3; ++I)
    Elems.push_back(tTranslate(2.0 * I, 4.0 * I, 0,
                               tScale(2, 2, 2, tUnit())));
  FoldFixture F(Elems);
  Runner R(RunnerLimits{.IterLimit = 6});
  R.run(F.G, reorderRules());
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  for (const ChainDecomposition &D : Ds) {
    // Every element has data for every layer: rectangular decomposition.
    for (size_t L = 0; L < D.numLayers(); ++L)
      EXPECT_EQ(D.Vectors[L].size(), D.numElements());
  }
}

TEST(ListManipTest, SortedOrderIsLexicographic) {
  std::vector<TermPtr> Elems = {tTranslate(6, 0, 0, tUnit()),
                                tTranslate(2, 0, 0, tUnit()),
                                tTranslate(4, 0, 0, tUnit())};
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  std::vector<size_t> Order = sortedOrder(Ds[0]);
  EXPECT_EQ(Order, (std::vector<size_t>{1, 2, 0}));
}

TEST(ListManipTest, AlreadySortedReturnsNullopt) {
  std::vector<TermPtr> Elems = {tTranslate(2, 0, 0, tUnit()),
                                tTranslate(4, 0, 0, tUnit())};
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  EXPECT_FALSE(sortFoldList(F.G, F.FoldClass, Ds[0]).has_value());
}

TEST(ListManipTest, SortMergesNewFoldIntoFoldClass) {
  std::vector<TermPtr> Elems = {tTranslate(6, 0, 0, tUnit()),
                                tTranslate(2, 0, 0, tUnit()),
                                tTranslate(4, 0, 0, tUnit())};
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  std::optional<SortedList> Sorted = sortFoldList(F.G, F.FoldClass, Ds[0]);
  ASSERT_TRUE(Sorted.has_value());
  F.G.rebuild();

  // The fold class now also represents the fold over the sorted list...
  TermPtr SortedFold = tFold(tOpRef(OpKind::Union), tEmpty(),
                             tList({tTranslate(2, 0, 0, tUnit()),
                                    tTranslate(4, 0, 0, tUnit()),
                                    tTranslate(6, 0, 0, tUnit())}));
  EXPECT_TRUE(F.G.representsTerm(F.FoldClass, SortedFold));
  // ...but the LIST classes stay distinct (lists are order-sensitive).
  EXPECT_NE(F.G.find(Sorted->ListClass), F.G.find(F.ListClass));
  // The returned decomposition is permuted accordingly.
  EXPECT_DOUBLE_EQ(Sorted->Decomposition.Vectors[0][0].X, 2.0);
  EXPECT_DOUBLE_EQ(Sorted->Decomposition.Vectors[0][2].X, 6.0);
}

TEST(InferenceTest, MapiInsertedAndRepresentsList) {
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 5; ++I)
    Elems.push_back(tTranslate(2.0 * (I + 1), 0, 0, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferFunctions(F.G, F.ListClass, Ds[0], Solver);
  F.G.rebuild();
  ASSERT_FALSE(Recs.empty());
  EXPECT_EQ(Recs[0].loopNotation(), "n1,5");
  EXPECT_EQ(Recs[0].formNotation(), "d1");

  // The list class now contains a Mapi node.
  bool HasMapi = false;
  for (ENodeId N : F.G.eclass(F.ListClass).Nodes)
    HasMapi |= F.G.node(N).kind() == OpKind::Mapi;
  EXPECT_TRUE(HasMapi);
}

TEST(InferenceTest, NoFormMeansNoInsertion) {
  // Random-ish offsets: no closed form within epsilon.
  std::vector<TermPtr> Elems = {tTranslate(1, 0, 0, tUnit()),
                                tTranslate(2.37, 0, 0, tUnit()),
                                tTranslate(3.01, 0, 0, tUnit()),
                                tTranslate(9.94, 0, 0, tUnit()),
                                tTranslate(11.2, 0, 0, tUnit())};
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  EXPECT_TRUE(inferFunctions(F.G, F.ListClass, Ds[0], Solver).empty());
}

TEST(InferenceTest, SingletonListIsNotALoop) {
  FoldFixture F({tTranslate(1, 0, 0, tUnit())});
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  if (Ds.empty())
    return; // also acceptable
  FunctionSolver Solver;
  EXPECT_TRUE(inferFunctions(F.G, F.ListClass, Ds[0], Solver).empty());
}

TEST(InferenceTest, LoopInferenceFindsGridFactorization) {
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 3; ++J)
      Elems.push_back(tTranslate(10.0 * I, 7.0 * J, 0, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferLoops(F.G, F.ListClass, Ds[0], Solver);
  F.G.rebuild();
  ASSERT_FALSE(Recs.empty());
  bool Found23 = false;
  for (const InferenceRecord &R : Recs)
    Found23 |= R.loopNotation() == "n2,2,3";
  EXPECT_TRUE(Found23);
}

TEST(InferenceTest, LoopInferenceTriple) {
  // A 2x2x2 cube of cubes: m = 3 factorization.
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      for (int K = 0; K < 2; ++K)
        Elems.push_back(
            tTranslate(10.0 * I, 7.0 * J, 4.0 * K, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferLoops(F.G, F.ListClass, Ds[0], Solver);
  bool Found222 = false;
  for (const InferenceRecord &R : Recs)
    Found222 |= R.loopNotation() == "n3,2,2,2";
  EXPECT_TRUE(Found222);
}

TEST(InferenceTest, LoopInferenceRequiresSharedChild) {
  // Same vectors, different children: must refuse.
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Elems.push_back(tTranslate(10.0 * I, 7.0 * J, 0,
                                 (I + J) % 2 ? tUnit() : tSphere()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  FunctionSolver Solver;
  for (const ChainDecomposition &D : Ds)
    EXPECT_TRUE(inferLoops(F.G, F.ListClass, D, Solver).empty());
}

TEST(InferenceTest, IrregularGroupsBySharedCoordinate) {
  // Two columns of different heights: x = 0 has 3 cells, x = 10 has 2.
  std::vector<TermPtr> Elems;
  for (int J = 0; J < 3; ++J)
    Elems.push_back(tTranslate(0, 5.0 * J, 0, tUnit()));
  for (int J = 0; J < 2; ++J)
    Elems.push_back(tTranslate(10, 5.0 * J, 0, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferIrregular(F.G, F.ListClass, Ds[0], Solver);
  F.G.rebuild();
  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].K, InferenceRecord::Kind::IrregularFold);
  EXPECT_EQ(Recs[0].Bounds, (std::vector<int64_t>{3, 2}));
}

TEST(InferenceTest, IrregularRejectsRegularGrids) {
  // A regular 2x2 grid is not "irregular": the regular path covers it.
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Elems.push_back(tTranslate(10.0 * I, 5.0 * J, 0, tUnit()));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  EXPECT_TRUE(inferIrregular(F.G, F.ListClass, Ds[0], Solver).empty());
}

TEST(InferenceTest, TrigVariantInsertedForPeriodicData) {
  // Ring of 6 cubes: rotation layer admits d1 *and* positions admit trig
  // under a translate decomposition; at minimum the d1 Mapi must appear,
  // and solveAll-driven variants must not corrupt the graph.
  std::vector<TermPtr> Elems;
  for (int I = 0; I < 6; ++I)
    Elems.push_back(
        tRotate(0, 0, 60.0 * I, tTranslate(10, 0, 0, tUnit())));
  FoldFixture F(Elems);
  std::vector<ChainDecomposition> Ds = determinize(F.G, F.ListClass);
  ASSERT_FALSE(Ds.empty());
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferFunctions(F.G, F.ListClass, Ds[0], Solver);
  F.G.rebuild();
  ASSERT_FALSE(Recs.empty());
  EXPECT_EQ(Recs[0].loopNotation(), "n1,6");
}
