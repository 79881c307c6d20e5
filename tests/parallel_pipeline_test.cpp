//===-- tests/parallel_pipeline_test.cpp - Sharded search determinism -----===//
//
// Differential coverage for the one parallel phase of the pipeline: the
// Runner's sharded rule search. Apply and k-best extraction are serial, so
// the contract docs/ARCHITECTURE.md states for the whole engine reduces to
// search sharding: the thread count is a pure performance knob — saturated
// e-graph dumps, runner statistics, and end-to-end synthesis results must
// be byte-identical at every NumThreads.
//
//  * saturation differential: NumThreads 1/2/4/8 over every bench model;
//  * rerun determinism at a fixed thread count;
//  * end-to-end synthesis differential;
//  * extraction-table compaction under long merge churn.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace shrinkray;

namespace {

const size_t ThreadCounts[] = {1, 2, 4, 8};

RunnerLimits testLimits(size_t Threads, size_t Iters = 8) {
  return RunnerLimits{.IterLimit = Iters,
                      .NodeLimit = 60000,
                      .TimeLimitSec = 30.0,
                      .NumThreads = Threads};
}

/// Serializes everything a saturation run determines: the full graph dump
/// plus the per-iteration statistics (a pure function of the graph, not of
/// the thread count).
std::string saturationFingerprint(const TermPtr &T, size_t Threads,
                                  size_t Iters = 8) {
  EGraph G;
  G.addTerm(T);
  G.rebuild();
  Runner R(testLimits(Threads, Iters));
  RunnerReport Rep = R.run(G, pipelineRules());
  std::ostringstream Os;
  Os << G.dump();
  Os << "stop=" << static_cast<int>(Rep.Stop)
     << " iters=" << Rep.numIterations() << "\n";
  for (const IterationStats &S : Rep.Iterations)
    Os << S.Applied << ' ' << S.Matches << ' ' << S.Nodes << ' ' << S.Classes
       << "\n";
  return Os.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Saturation differential: every bench model, thread counts 1/2/4/8
//===----------------------------------------------------------------------===//

TEST(ParallelApplyDifferentialTest, SaturationIdenticalOnAllBenchModels) {
  for (const models::BenchmarkModel &M : models::allModels()) {
    const std::string Baseline = saturationFingerprint(M.FlatCsg, 1);
    for (size_t Threads : ThreadCounts) {
      if (Threads == 1)
        continue;
      ASSERT_EQ(saturationFingerprint(M.FlatCsg, Threads), Baseline)
          << M.Name << " diverges at NumThreads=" << Threads;
    }
  }
}

TEST(ParallelApplyDifferentialTest, RerunAtFixedThreadCountIsDeterministic) {
  const TermPtr &T = models::modelByName("3362402:gear").FlatCsg;
  const std::string First = saturationFingerprint(T, 4);
  ASSERT_EQ(saturationFingerprint(T, 4), First);
}

//===----------------------------------------------------------------------===//
// End-to-end synthesis differential
//===----------------------------------------------------------------------===//

TEST(ParallelPipelineDifferentialTest, SynthesisIdenticalAcrossThreads) {
  const TermPtr &T = models::modelByName("3362402:gear").FlatCsg;
  std::string Baseline;
  for (size_t Threads : ThreadCounts) {
    SynthesisOptions Opts;
    Opts.Limits.NumThreads = Threads;
    SynthesisResult R = Synthesizer(Opts).synthesize(T);
    std::ostringstream Os;
    for (const RankedTerm &P : R.Programs)
      Os << P.Cost << ' ' << printSexp(P.T) << "\n";
    if (Threads == 1)
      Baseline = Os.str();
    else
      ASSERT_EQ(Os.str(), Baseline)
          << "synthesis diverges at NumThreads=" << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Extraction-table compaction
//===----------------------------------------------------------------------===//

TEST(ExtractTableCompactionTest, StaleRowsAreSweptUnderMergeChurn) {
  // 200 distinct Var leaves merged down to one class, one merge per
  // refresh: each merge strands the loser's candidate row under a
  // superseded key. Without compaction the tables would keep all ~200
  // rows while only one class stays live.
  EGraph G;
  std::vector<EClassId> Leaves;
  for (int I = 0; I < 200; ++I)
    Leaves.push_back(
        G.addTerm(parseSexp("(Var a" + std::to_string(I) + ")").Value));
  G.rebuild();
  AstSizeCost Cost;
  Extractor One(G, Cost);
  KBestExtractor E(G, Cost, 3);
  for (size_t I = 1; I < Leaves.size(); ++I) {
    G.merge(Leaves[0], Leaves[I]);
    G.rebuild();
    One.refresh();
    E.refresh();
    EXPECT_LE(One.tableEntries(), 2 * G.numClasses())
        << "one-best table unbounded after merge " << I;
    EXPECT_LE(E.tableEntries(), 2 * G.numClasses())
        << "k-best table unbounded after merge " << I;
  }
  EXPECT_EQ(G.numClasses(), 1u);
  // The survivor still extracts correctly after every sweep.
  std::vector<RankedTerm> Progs = E.extract(Leaves[0]);
  ASSERT_EQ(Progs.size(), 3u);
  EXPECT_EQ(printSexp(Progs[0].T), "(Var a0)");
}
