//===-- tests/extract_engine_test.cpp - Worklist extraction engine --------===//
//
// Differential and adversarial coverage for the worklist-driven, incremental
// extraction engine:
//
//  * parent-index (canonicalParents) consistency under merges and repair;
//  * worklist one-best vs the fixed-point ReferenceExtractor: bit-identical
//    costs, choice nodes, and extracted terms for every class of every
//    bench model's saturated e-graph;
//  * k-best worklist vs ReferenceKBestExtractor: bit-identical candidate
//    lists, plus the distinctness/ordering properties the paper's top-k
//    contract requires;
//  * incremental refresh() equivalence: refreshing across extra saturation
//    rounds and adversarial merge sequences must land on exactly the state
//    a from-scratch derivation computes;
//  * value-level deduplication: Int/Float respellings never masquerade as
//    program diversity.
//
//===----------------------------------------------------------------------===//

#include "egraph/Extract.h"
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

/// Asserts two k-best extractions agree bit-for-bit on every class.
template <typename EngineT, typename OracleT>
void expectKBestIdentical(const EGraph &G, const EngineT &Engine,
                          const OracleT &Oracle, const std::string &Tag) {
  for (EClassId Id : G.classIds()) {
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
  AstSizeCost Cost;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    saturate(G, M.FlatCsg);
    KBestExtractor Engine(G, Cost, 5);
    ReferenceKBestExtractor Oracle(G, Cost, 5);
    expectKBestIdentical(G, Engine, Oracle, M.Name);
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
  expectKBestIdentical(G, KEngine, KOracle, "nintendo-slot/reward-loops");
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
// Incremental refresh
//===----------------------------------------------------------------------===//

TEST(IncrementalExtractTest, RefreshAfterSaturationRoundsMatchesScratch) {
  AstSizeCost Cost;
  for (const char *Name : {"3362402:gear", "3432939:nintendo-slot"}) {
    EGraph G;
    EClassId Root = G.addTerm(models::modelByName(Name).FlatCsg);
    G.rebuild();

    // Round 1: a few iterations, then derive from scratch.
    Runner R1(RunnerLimits{.IterLimit = 4});
    R1.run(G, pipelineRules());
    Extractor Engine(G, Cost);
    KBestExtractor KEngine(G, Cost, 5);

    // Round 2: keep saturating, then refresh incrementally.
    Runner R2(RunnerLimits{.IterLimit = 20,
                           .NodeLimit = 60000,
                           .TimeLimitSec = 30.0});
    R2.run(G, pipelineRules());
    Engine.refresh();
    KEngine.refresh();

    ReferenceExtractor Oracle(G, Cost);
    expectOneBestIdentical(G, Engine, Oracle, std::string(Name) + "/refresh");
    ReferenceKBestExtractor KOracle(G, Cost, 5);
    expectKBestIdentical(G, KEngine, KOracle,
                         std::string(Name) + "/refresh");
    EXPECT_TRUE(termEquals(Engine.extract(Root), Oracle.extract(Root)));
  }
}

TEST(IncrementalExtractTest, RefreshAfterAdversarialMergesMatchesScratch) {
  AstSizeCost Cost;
  for (int Seed = 0; Seed < 6; ++Seed) {
    Rng R(static_cast<uint64_t>(Seed) * 131 + 29);
    EGraph G;
    std::vector<EClassId> Pool = buildMergePool(G);
    auto Engine = std::make_unique<Extractor>(G, Cost);
    auto KEngine = std::make_unique<KBestExtractor>(G, Cost, 4);

    for (int Step = 0; Step < 12; ++Step) {
      G.merge(Pool[R.nextBelow(Pool.size())], Pool[R.nextBelow(Pool.size())]);
      if (Step % 2 == 0) { // batch some merges before rebuilding
        G.rebuild();
        Engine->refresh();
        KEngine->refresh();
        ReferenceExtractor Oracle(G, Cost);
        expectOneBestIdentical(G, *Engine, Oracle,
                               "merge seed " + std::to_string(Seed) +
                                   " step " + std::to_string(Step));
        ReferenceKBestExtractor KOracle(G, Cost, 4);
        expectKBestIdentical(G, *KEngine, KOracle,
                             "merge seed " + std::to_string(Seed) + " step " +
                                 std::to_string(Step));
      }
    }
  }
}

TEST(IncrementalExtractTest, RefreshSeesNewClassesAndFoldedConstants) {
  AstSizeCost Cost;
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Extractor Engine(G, Cost);
  KBestExtractor KEngine(G, Cost, 3);
  ASSERT_EQ(*Engine.bestCost(Root), 3.0);

  // Grow the graph: a constant-folding class, and a cheaper alternative
  // merged into the root.
  EClassId Sum = G.addTerm(tAdd(tFloat(1.5), tFloat(2.5)));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  Engine.refresh();
  KEngine.refresh();

  EXPECT_EQ(*Engine.bestCost(Root), 1.0);
  EXPECT_EQ(Engine.extract(Root)->kind(), OpKind::Unit);
  EXPECT_EQ(*Engine.bestCost(Sum), 1.0); // the materialized literal
  EXPECT_EQ(Engine.extract(Sum)->op().numericValue(), 4.0);

  ReferenceExtractor Oracle(G, Cost);
  expectOneBestIdentical(G, Engine, Oracle, "grown graph");
  ReferenceKBestExtractor KOracle(G, Cost, 3);
  expectKBestIdentical(G, KEngine, KOracle, "grown graph");
}

TEST(IncrementalExtractTest, NoOpRefreshIsStable) {
  AstSizeCost Cost;
  EGraph G;
  EClassId Root = saturate(G, models::modelByName("3362402:gear").FlatCsg, 6);
  KBestExtractor Engine(G, Cost, 5);
  std::vector<RankedTerm> Before = Engine.extract(Root);
  Engine.refresh(); // generation unchanged: must be a no-op
  std::vector<RankedTerm> After = Engine.extract(Root);
  ASSERT_EQ(Before.size(), After.size());
  for (size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ(Before[I].Cost, After[I].Cost);
    EXPECT_TRUE(termEquals(Before[I].T, After[I].T));
  }
}
