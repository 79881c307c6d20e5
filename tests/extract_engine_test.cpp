//===-- tests/extract_engine_test.cpp - Worklist extraction engine --------===//
//
// Differential and adversarial coverage for the extraction engines:
//
//  * parent-index (canonicalParents) consistency under merges and repair;
//  * worklist one-best vs the fixed-point ReferenceExtractor: bit-identical
//    costs, choice nodes, and extracted terms for every class of every
//    bench model's saturated e-graph;
//  * lazy k-best vs ReferenceKBestExtractor: bit-identical candidate
//    lists at the root and at every class, under both pipeline cost
//    functions and several k, on the bench models, on hand-built cycles
//    and after adversarial merges; plus the distinctness/ordering
//    properties the paper's top-k contract requires;
//  * laziness and depth: a root extraction touches a small part of the
//    graph, and a 5,000-element spine extracts without recursion;
//  * value-level deduplication: Int/Float respellings never masquerade as
//    program diversity.
//
//===----------------------------------------------------------------------===//

#include "ExtractOracle.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "support/Rng.h"
#include "synth/Cost.h"

#include <gtest/gtest.h>

#include <memory>

using namespace shrinkray;

namespace {

/// Saturates \p T's e-graph with the pipeline rules under test-sized fuel.
EClassId saturate(EGraph &G, const TermPtr &T, size_t Iters = 24) {
  EClassId Root = G.addTerm(T);
  G.rebuild();
  Runner R(RunnerLimits{.IterLimit = Iters,
                        .NodeLimit = 60000,
                        .TimeLimitSec = 30.0});
  R.run(G, pipelineRules());
  return Root;
}

/// Asserts the worklist one-best engine agrees bit-for-bit with the
/// fixed-point oracle on every class: same finiteness, same exact cost,
/// same canonical choice node, same extracted term.
void expectOneBestIdentical(const EGraph &G, const Extractor &Engine,
                            const ReferenceExtractor &Oracle,
                            const std::string &Tag) {
  for (EClassId Id : G.classIds()) {
    std::optional<double> A = Engine.bestCost(Id);
    std::optional<double> B = Oracle.bestCost(Id);
    ASSERT_EQ(A.has_value(), B.has_value())
        << Tag << ": extractability differs at class " << Id;
    if (!A)
      continue;
    ASSERT_EQ(*A, *B) << Tag << ": cost differs at class " << Id;
    const ENode *CA = Engine.choiceNode(Id);
    const ENode *CB = Oracle.choiceNode(Id);
    ASSERT_NE(CA, nullptr) << Tag << ": class " << Id;
    ASSERT_NE(CB, nullptr) << Tag << ": class " << Id;
    ASSERT_TRUE(G.canonicalize(*CA) == G.canonicalize(*CB))
        << Tag << ": choice node differs at class " << Id << " ("
        << CA->Operator.str() << " vs " << CB->Operator.str() << ")";
    ASSERT_TRUE(termEquals(Engine.extract(Id), Oracle.extract(Id)))
        << Tag << ": extracted term differs at class " << Id;
  }
}

/// Asserts two k-best extractions agree bit-for-bit on classes \p Ids.
template <typename EngineT, typename OracleT>
void expectKBestIdentical(const std::vector<EClassId> &Ids, EngineT &Engine,
                          const OracleT &Oracle, const std::string &Tag) {
  for (EClassId Id : Ids) {
    std::vector<RankedTerm> A = Engine.extract(Id);
    std::vector<RankedTerm> B = Oracle.extract(Id);
    ASSERT_EQ(A.size(), B.size())
        << Tag << ": candidate count differs at class " << Id;
    for (size_t I = 0; I < A.size(); ++I) {
      ASSERT_EQ(A[I].Cost, B[I].Cost)
          << Tag << ": cost of candidate " << I << " differs at class " << Id;
      ASSERT_TRUE(termEquals(A[I].T, B[I].T))
          << Tag << ": candidate " << I << " differs at class " << Id;
    }
  }
}

/// Root-only and every-class extractions against the oracle, each from a
/// fresh engine, for k in {1, 2, 5, 8}.
void expectLazyMatchesOracle(const EGraph &G, EClassId Root, const CostFn &Cost,
                             const std::string &Tag) {
  for (size_t K : {1u, 2u, 5u, 8u}) {
    const std::string KTag = Tag + " k=" + std::to_string(K);
    ReferenceKBestExtractor Oracle(G, Cost, K);
    KBestExtractor RootOnly(G, Cost, K);
    expectKBestIdentical({Root}, RootOnly, Oracle, KTag + " root");
    KBestExtractor Everywhere(G, Cost, K);
    expectKBestIdentical(G.classIds(), Everywhere, Oracle, KTag);
  }
}

/// A merge-rich pool graph whose roots carry no constant-folding analysis
/// (so arbitrary pool merges never violate the merged-constants invariant).
std::vector<EClassId> buildMergePool(EGraph &G) {
  std::vector<EClassId> Pool;
  for (int I = 0; I < 20; ++I) {
    TermPtr Leaf = I % 2 ? tUnit() : tSphere();
    TermPtr T = tTranslate(static_cast<double>(I % 5), 0, 0, Leaf);
    if (I % 3 == 0)
      T = tUnion(T, tEmpty());
    if (I % 4 == 0)
      T = tScale(2, 2, 2, T);
    Pool.push_back(G.addTerm(T));
  }
  G.rebuild();
  return Pool;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parent index
//===----------------------------------------------------------------------===//

TEST(ParentIndexTest, LeafClassListsItsReferencingNodes) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tTranslate(1, 2, 3, tUnit()), tUnit()));
  EClassId Unit = G.addTerm(tUnit());
  G.rebuild();

  const auto &Parents = G.canonicalParents(Unit);
  // Unit is referenced by the Translate node and by the Union root.
  ASSERT_EQ(Parents.size(), 2u);
  for (ENodeId P : Parents) {
    bool IsTranslate = G.node(P).kind() == OpKind::Translate;
    bool IsUnion = G.node(P).kind() == OpKind::Union;
    EXPECT_TRUE(IsTranslate || IsUnion);
    if (IsUnion) {
      EXPECT_EQ(G.nodeClass(P), G.find(Root));
    }
  }
}

TEST(ParentIndexTest, MergeUnionsParentSetsAndCompactsDuplicates) {
  EGraph G;
  EClassId U = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId D = G.addTerm(tDiff(tSphere(), tUnit()));
  EClassId Unit = G.addTerm(tUnit());
  EClassId Sphere = G.addTerm(tSphere());
  (void)U;
  (void)D;
  G.merge(Unit, Sphere); // Union(a,a) and Diff(a,a): parents become congruent
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  const auto &Parents = G.canonicalParents(Unit);
  // After compaction each canonical parent node appears exactly once.
  ASSERT_EQ(Parents.size(), 2u);
  for (ENodeId P : Parents) {
    ENode Canon = G.canonicalize(G.node(P));
    bool Refers = false;
    for (EClassId Kid : Canon.children())
      Refers |= G.find(Kid) == G.find(Unit);
    EXPECT_TRUE(Refers);
    EXPECT_EQ(G.lookup(Canon), std::optional<EClassId>(G.nodeClass(P)));
  }
}

TEST(ParentIndexTest, SelfReferentialClassIsItsOwnParent) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tEmpty()));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  bool SelfLoop = false;
  for (ENodeId P : G.canonicalParents(Root))
    SelfLoop |= G.nodeClass(P) == G.find(Root);
  EXPECT_TRUE(SelfLoop);
}

TEST(ParentIndexTest, InvariantHoldsUnderAdversarialMerges) {
  for (int Seed = 0; Seed < 6; ++Seed) {
    Rng R(static_cast<uint64_t>(Seed) * 601 + 7);
    EGraph G;
    std::vector<EClassId> Pool = buildMergePool(G);
    for (int Step = 0; Step < 15; ++Step) {
      G.merge(Pool[R.nextBelow(Pool.size())], Pool[R.nextBelow(Pool.size())]);
      if (Step % 3 == 0)
        G.rebuild();
      if (!G.isDirty()) {
        // Exercise compaction mid-sequence, then re-validate everything.
        for (EClassId Id : G.classIds())
          (void)G.canonicalParents(Id);
        ASSERT_EQ(G.checkInvariants(), "")
            << "seed " << Seed << " step " << Step;
      }
    }
    G.rebuild();
    ASSERT_EQ(G.checkInvariants(), "") << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Differential: worklist engines vs fixed-point oracles, every bench model
//===----------------------------------------------------------------------===//

TEST(ExtractDifferentialTest, OneBestMatchesOracleOnAllBenchModels) {
  AstSizeCost Cost;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    saturate(G, M.FlatCsg);
    Extractor Engine(G, Cost);
    ReferenceExtractor Oracle(G, Cost);
    expectOneBestIdentical(G, Engine, Oracle, M.Name);
  }
}

TEST(ExtractDifferentialTest, KBestMatchesOracleOnAllBenchModels) {
  AstSizeCost Size;
  RewardLoopsCost Loops;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    EClassId Root = saturate(G, M.FlatCsg);
    expectLazyMatchesOracle(G, Root, Size, M.Name + "/ast-size");
    expectLazyMatchesOracle(G, Root, Loops, M.Name + "/reward-loops");
  }
}

TEST(ExtractDifferentialTest, RewardLoopsCostAgreesOnTailModel) {
  // The reward-loops cost reweights exactly the operators loop synthesis
  // inserts; run the differential on one structure-rich model with it.
  RewardLoopsCost Cost;
  EGraph G;
  saturate(G, models::modelByName("3432939:nintendo-slot").FlatCsg);
  Extractor Engine(G, Cost);
  ReferenceExtractor Oracle(G, Cost);
  expectOneBestIdentical(G, Engine, Oracle, "nintendo-slot/reward-loops");
  KBestExtractor KEngine(G, Cost, 5);
  ReferenceKBestExtractor KOracle(G, Cost, 5);
  expectKBestIdentical(G.classIds(), KEngine, KOracle,
                       "nintendo-slot/reward-loops");
}

TEST(ExtractDifferentialTest, DepthCostAgreesOnCyclicGraph) {
  // AstDepthCost produces frequent exact ties (max + 1), stressing the
  // deterministic tie-break; include a self-referential class.
  AstDepthCost Cost;
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tUnion(tSphere(), tEmpty())));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  Extractor Engine(G, Cost);
  ReferenceExtractor Oracle(G, Cost);
  expectOneBestIdentical(G, Engine, Oracle, "depth/cyclic");
  EXPECT_EQ(Engine.extract(Root)->kind(), OpKind::Unit);
}

//===----------------------------------------------------------------------===//
// K-best contract: ordering, distinctness, head
//===----------------------------------------------------------------------===//

TEST(KBestContractTest, CandidatesSortedDistinctAndHeadedByOneBest) {
  AstSizeCost Cost;
  for (const char *Name : {"3362402:gear", "3432939:nintendo-slot"}) {
    EGraph G;
    EClassId Root = saturate(G, models::modelByName(Name).FlatCsg);
    KBestExtractor Engine(G, Cost, 5);
    Extractor OneBest(G, Cost);

    std::vector<RankedTerm> Ranked = Engine.extract(Root);
    ASSERT_FALSE(Ranked.empty()) << Name;
    EXPECT_EQ(Ranked[0].Cost, *OneBest.bestCost(Root)) << Name;
    for (size_t I = 1; I < Ranked.size(); ++I) {
      EXPECT_LE(Ranked[I - 1].Cost, Ranked[I].Cost) << Name;
      for (size_t J = 0; J < I; ++J)
        EXPECT_FALSE(termApproxEquals(Ranked[I].T, Ranked[J].T, 0.0))
            << Name << ": candidates " << J << " and " << I
            << " are value-equal respellings";
    }
  }
}

TEST(KBestContractTest, IntFloatRespellingsAreNotDiversity) {
  // A numeric class holds both the Float(5.0) spelling and the analysis-
  // materialized Int(5) leaf; k-best must collapse them to one program.
  EGraph G;
  EClassId Num = G.addTerm(tFloat(5.0));
  G.rebuild();
  ASSERT_GE(G.eclass(Num).Nodes.size(), 2u); // Float + materialized Int
  AstSizeCost Cost;
  KBestExtractor Engine(G, Cost, 5);
  std::vector<RankedTerm> Ranked = Engine.extract(Num);
  ASSERT_EQ(Ranked.size(), 1u);
  EXPECT_EQ(Ranked[0].T->kind(), OpKind::Int); // integer spelling is cheaper
}

TEST(KBestContractTest, ValueHashAgreesWithApproxEquality) {
  TermPtr IntSpelling = tTranslate(tVec3(tInt(5), tInt(0), tInt(2)), tUnit());
  TermPtr FloatSpelling =
      tTranslate(tVec3(tFloat(5.0), tInt(0), tFloat(2.0)), tUnit());
  ASSERT_TRUE(termApproxEquals(IntSpelling, FloatSpelling, 0.0));
  EXPECT_EQ(termValueHash(IntSpelling), termValueHash(FloatSpelling));
  EXPECT_NE(termHash(IntSpelling), termHash(FloatSpelling));
}

//===----------------------------------------------------------------------===//
// Lazy k-best: differential, cycles, depth, laziness
//===----------------------------------------------------------------------===//


TEST(LazyKBestTest, SelfLoopClassEnumeratesDeeperPrograms) {
  // {Unit, Translate(v, self)}: every candidate wraps the previous one.
  EGraph G;
  EClassId Root = G.addTerm(tTranslate(1, 2, 3, tUnit()));
  G.merge(Root, G.addTerm(tUnit()));
  G.rebuild();
  AstSizeCost Size;
  AstDepthCost Depth;
  expectLazyMatchesOracle(G, Root, Size, "self-loop/ast-size");
  expectLazyMatchesOracle(G, Root, Depth, "self-loop/depth");
  KBestExtractor Engine(G, Size, 5);
  std::vector<RankedTerm> Ranked = Engine.extract(Root);
  ASSERT_EQ(Ranked.size(), 5u);
  EXPECT_EQ(Ranked[0].T->kind(), OpKind::Unit);
  for (size_t I = 1; I < Ranked.size(); ++I) {
    EXPECT_LT(Ranked[I - 1].Cost, Ranked[I].Cost);
    EXPECT_TRUE(termEquals(Ranked[I].T->child(1), Ranked[I - 1].T));
  }
}

TEST(LazyKBestTest, TwoCycleClassesMatchOracle) {
  // Translate(v1, Scale(v2, Unit)) with the Translate merged into Unit's
  // class: {Unit, Translate(v1, S)} and S = {Scale(v2, that class)}, a
  // cycle through a class with no leaf. Merging Sphere into S as well
  // gives both classes a leaf.
  AstSizeCost Size;
  AstDepthCost Depth;
  for (bool LeafInBoth : {false, true}) {
    EGraph G;
    EClassId Top = G.addTerm(tTranslate(1, 0, 0, tScale(2, 2, 2, tUnit())));
    EClassId Scale = G.addTerm(tScale(2, 2, 2, tUnit()));
    G.merge(Top, G.addTerm(tUnit()));
    if (LeafInBoth)
      G.merge(Scale, G.addTerm(tSphere()));
    G.rebuild();
    ASSERT_EQ(G.checkInvariants(), "");
    const std::string Tag = LeafInBoth ? "two-cycle/leaves" : "two-cycle";
    expectLazyMatchesOracle(G, Top, Size, Tag + "/ast-size");
    expectLazyMatchesOracle(G, Top, Depth, Tag + "/depth");
    expectLazyMatchesOracle(G, Scale, Size, Tag + "/ast-size/scale-root");
  }
}

TEST(LazyKBestTest, AdversarialMergesMatchOracle) {
  // Random merges over a shared pool build cycles of every length; a
  // fresh engine after each batch must land on the oracle's lists.
  AstSizeCost Cost;
  for (int Seed = 0; Seed < 6; ++Seed) {
    Rng R(static_cast<uint64_t>(Seed) * 131 + 29);
    EGraph G;
    std::vector<EClassId> Pool = buildMergePool(G);
    for (int Step = 0; Step < 12; ++Step) {
      G.merge(Pool[R.nextBelow(Pool.size())], Pool[R.nextBelow(Pool.size())]);
      if (Step % 2 != 0)
        continue; // batch some merges before rebuilding
      G.rebuild();
      const std::string Tag =
          "merge seed " + std::to_string(Seed) + " step " +
          std::to_string(Step);
      Extractor Engine(G, Cost);
      ReferenceExtractor Oracle(G, Cost);
      expectOneBestIdentical(G, Engine, Oracle, Tag);
      KBestExtractor KEngine(G, Cost, 4);
      ReferenceKBestExtractor KOracle(G, Cost, 4);
      expectKBestIdentical(G.classIds(), KEngine, KOracle, Tag);
    }
  }
}

TEST(LazyKBestTest, RepeatedExtractIsStable) {
  AstSizeCost Cost;
  EGraph G;
  EClassId Root = saturate(G, models::modelByName("3362402:gear").FlatCsg, 6);
  KBestExtractor Engine(G, Cost, 5);
  std::vector<RankedTerm> Before = Engine.extract(Root);
  const size_t Rows = Engine.rowsInterned();
  std::vector<RankedTerm> After = Engine.extract(Root);
  EXPECT_EQ(Engine.rowsInterned(), Rows); // the second call derives nothing
  ASSERT_EQ(Before.size(), After.size());
  for (size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ(Before[I].Cost, After[I].Cost);
    EXPECT_TRUE(termEquals(Before[I].T, After[I].T));
  }
}

TEST(LazyKBestTest, DeepSpinesExtractWithoutRecursion) {
  // 5,000 translated cubes as a Union chain and as a Cons list. Unit's
  // class also holds Union(Unit, Empty), so every element has
  // alternatives and the root's later candidates send requests all the
  // way down the spine.
  constexpr int N = 5000;
  std::vector<TermPtr> Elems;
  for (int I = 0; I < N; ++I)
    Elems.push_back(tTranslate(I, 0, 0, tUnit()));
  AstSizeCost Cost;
  for (bool AsList : {false, true}) {
    EGraph G;
    EClassId Root = G.addTerm(AsList ? tList(Elems) : tUnionAll(Elems));
    EClassId Unit = G.addTerm(tUnit());
    G.merge(Unit, G.addTerm(tUnion(tUnit(), tEmpty())));
    G.rebuild();
    Extractor OneBest(G, Cost);
    KBestExtractor Engine(G, Cost, 5);
    std::vector<RankedTerm> Ranked = Engine.extract(Root);
    ASSERT_EQ(Ranked.size(), 5u) << (AsList ? "list" : "union");
    EXPECT_EQ(Ranked[0].Cost, *OneBest.bestCost(Root));
    // One Unit respelled as Union(Unit, Empty) adds two nodes.
    for (size_t I = 1; I < Ranked.size(); ++I)
      EXPECT_EQ(Ranked[I].Cost, Ranked[0].Cost + 2.0);
  }
}

TEST(LazyKBestTest, GearTopFiveTouchesFewRows) {
  // The root's top 5 need candidates of a few classes only: 555 rows on
  // this graph, where deriving a 5-best list for every class made 11,125.
  AstSizeCost Cost;
  EGraph G;
  EClassId Root = G.addTerm(models::modelByName("3362402:gear").FlatCsg);
  G.rebuild();
  Runner().run(G, pipelineRules());
  KBestExtractor Engine(G, Cost, 5);
  ASSERT_EQ(Engine.extract(Root).size(), 5u);
  EXPECT_LT(Engine.rowsInterned(), 1000u);
}
