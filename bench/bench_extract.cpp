//===-- bench/bench_extract.cpp - Extraction-engine benchmark -------------===//
//
// Per-phase timing of the extraction engine on Table 1's tail models (the
// models where, after the PR-2 matching speedups, extraction and the
// solvers dominate end-to-end synthesis — see ROADMAP.md). For each model
// the harness reports JSON rows keyed by (model, kind):
//
//   synth_rewrite / synth_solve / synth_extract
//       phase breakdown of one full Synthesizer run (SynthesisStats);
//   saturate_warm / saturate_rest
//       the two saturation stages of the staged engine experiment below;
//   onebest_worklist / onebest_oracle
//       worklist one-best derivation vs the whole-graph fixed point;
//   kbest_initial / kbest_refresh / kbest_scratch / kbest_oracle
//       k-best derivation on the warm graph, incremental refresh after the
//       rest of saturation, a from-scratch worklist derivation of the same
//       final graph, and the fixed-point oracle.
//
// The refresh-vs-scratch pair is the incrementality headline: refresh cost
// tracks the dirty closure, scratch cost tracks graph size. Every engine
// result is cross-checked against its oracle before timing is reported.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

constexpr size_t TopK = 5;

/// Tail models: slowest end-to-end after the PR-2 matching speedups.
const char *const TailModels[] = {
    "3432939:nintendo-slot",
    "3362402:gear",
    "510849:wardrobe",
};

double timeRow(JsonReport &Report, const std::string &Model,
               const char *Kind, double Seconds, size_t Classes,
               size_t Nodes) {
  JsonObject &Row = Report.row()
                        .add("model", Model)
                        .add("kind", Kind)
                        .add("time_sec", Seconds)
                        .add("classes", Classes)
                        .add("nodes", Nodes);
  addResourceFields(Row);
  std::printf("  %-18s %8.4f s   (%zu classes, %zu nodes)\n", Kind, Seconds,
              Classes, Nodes);
  return Seconds;
}

/// Terms equal per ranked position — the cheap cross-check that the timed
/// engines computed the same answer.
bool sameRanking(const std::vector<RankedTerm> &A,
                 const std::vector<RankedTerm> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Cost != B[I].Cost || !termEquals(A[I].T, B[I].T))
      return false;
  return true;
}

} // namespace

int main() {
  JsonReport Report("extract");
  std::printf("== Extraction engine on Table 1 tail models ==\n");
  const AstSizeCost Cost;
  bool AllIdentical = true;
  double WorklistTotal = 0.0, OracleTotal = 0.0;

  for (const char *Name : TailModels) {
    const BenchmarkModel M = modelByName(Name);
    std::printf("\n-- %s --\n", Name);

    // One full pipeline run, phase-attributed.
    SynthesisResult R = Synthesizer().synthesize(M.FlatCsg);
    timeRow(Report, Name, "synth_rewrite", R.Stats.RewriteSeconds,
            R.Stats.EClasses, R.Stats.ENodes);
    timeRow(Report, Name, "synth_solve", R.Stats.SolveSeconds,
            R.Stats.EClasses, R.Stats.ENodes);
    timeRow(Report, Name, "synth_extract", R.Stats.ExtractSeconds,
            R.Stats.EClasses, R.Stats.ENodes);

    // Staged saturation: warm graph -> engines -> rest -> refresh.
    EGraph G;
    EClassId Root = G.addTerm(M.FlatCsg);
    G.rebuild();
    const std::vector<Rewrite> Rules = pipelineRules();

    WallTimer WarmTimer;
    Runner Warm(RunnerLimits{.IterLimit = 6});
    Warm.run(G, Rules);
    timeRow(Report, Name, "saturate_warm", WarmTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer KInitTimer;
    KBestExtractor KEngine(G, Cost, TopK);
    timeRow(Report, Name, "kbest_initial", KInitTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer RestTimer;
    Runner Rest(RunnerLimits{});
    Rest.run(G, Rules);
    timeRow(Report, Name, "saturate_rest", RestTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer RefreshTimer;
    KEngine.refresh();
    timeRow(Report, Name, "kbest_refresh", RefreshTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer OneTimer;
    Extractor OneBest(G, Cost);
    double OneSec = timeRow(Report, Name, "onebest_worklist",
                            OneTimer.seconds(), G.numClasses(), G.numNodes());

    WallTimer OneOracleTimer;
    ReferenceExtractor OneOracle(G, Cost);
    double OneOracleSec =
        timeRow(Report, Name, "onebest_oracle", OneOracleTimer.seconds(),
                G.numClasses(), G.numNodes());

    WallTimer KScratchTimer;
    KBestExtractor KScratch(G, Cost, TopK);
    double KSec = timeRow(Report, Name, "kbest_scratch",
                          KScratchTimer.seconds(), G.numClasses(),
                          G.numNodes());

    WallTimer KOracleTimer;
    ReferenceKBestExtractor KOracle(G, Cost, TopK);
    double KOracleSec =
        timeRow(Report, Name, "kbest_oracle", KOracleTimer.seconds(),
                G.numClasses(), G.numNodes());

    WorklistTotal += OneSec + KSec;
    OracleTotal += OneOracleSec + KOracleSec;

    // Cross-checks: refresh == scratch == oracle at the root; one-best
    // engines agree on cost and term.
    bool Identical =
        sameRanking(KEngine.extract(Root), KScratch.extract(Root)) &&
        sameRanking(KScratch.extract(Root), KOracle.extract(Root)) &&
        OneBest.bestCost(Root) == OneOracle.bestCost(Root) &&
        termEquals(OneBest.extract(Root), OneOracle.extract(Root));
    if (!Identical)
      std::printf("  !! engine/oracle DISAGREE on %s\n", Name);
    AllIdentical &= Identical;

  }

  // Whole pipeline, serial vs 4 threads on the same workload (full
  // saturation from scratch, then a from-scratch top-k derivation of the
  // final graph). Only the search phase is parallel, so the par4 row
  // means 4 search threads; apply and extraction run serially in both
  // rows. This loop deliberately runs AFTER the per-model sections above:
  // the rows up there predate it and gate against baselines measured
  // without this extra workload in front of them — perturbing their
  // warm-up state would read as a regression in code that did not change.
  std::printf("\n== Pipeline serial vs 4 threads ==\n");
  for (const char *Name : TailModels) {
    const BenchmarkModel M = modelByName(Name);
    const std::vector<Rewrite> Rules = pipelineRules();
    std::printf("\n-- %s --\n", Name);
    double SerialApply = 0.0, SerialExtract = 0.0;
    std::vector<RankedTerm> SerialRanking;
    size_t SerialClasses = 0, SerialNodes = 0;
    for (size_t Threads : {size_t(1), size_t(4)}) {
      EGraph GT;
      EClassId RootT = GT.addTerm(M.FlatCsg);
      GT.rebuild();
      WallTimer ApplyTimer;
      Runner R2(RunnerLimits{.NumThreads = Threads});
      RunnerReport Rep = R2.run(GT, Rules);
      double SaturateSec = ApplyTimer.seconds();
      WallTimer ExtractTimer;
      KBestExtractor KPar(GT, Cost, TopK);
      double ExtractSec = ExtractTimer.seconds();
      std::vector<RankedTerm> Ranking = KPar.extract(RootT);

      const char *Kind = Threads == 1 ? "pipeline_serial" : "pipeline_par4";
      JsonObject &Row = Report.row();
      Row.add("model", Name)
          .add("kind", Kind)
          .add("time_sec", SaturateSec + ExtractSec)
          .add("rewrite_apply_sec", Rep.ApplySec)
          .add("extract_sec", ExtractSec)
          .add("classes", GT.numClasses())
          .add("nodes", GT.numNodes());
      addResourceFields(Row);
      std::printf("  %-18s %8.4f s   (apply %.4f s, extract %.4f s)\n", Kind,
                  SaturateSec + ExtractSec, Rep.ApplySec, ExtractSec);

      if (Threads == 1) {
        SerialApply = Rep.ApplySec;
        SerialExtract = ExtractSec;
        SerialRanking = std::move(Ranking);
        SerialClasses = GT.numClasses();
        SerialNodes = GT.numNodes();
      } else {
        double Combined = Rep.ApplySec + ExtractSec;
        double SerialCombined = SerialApply + SerialExtract;
        double Speedup = Combined > 0 ? SerialCombined / Combined : 0.0;
        Row.add("combined_speedup_vs_serial", Speedup);
        std::printf("  %-18s %8.2fx  (combined apply+extract vs serial)\n",
                    "par4 speedup", Speedup);
        // Thread-count independence is a correctness gate here, like the
        // engine/oracle checks above.
        bool SameResult = sameRanking(SerialRanking, Ranking) &&
                          SerialClasses == GT.numClasses() &&
                          SerialNodes == GT.numNodes();
        if (!SameResult)
          std::printf("  !! serial/parallel DISAGREE on %s\n", Name);
        AllIdentical &= SameResult;
      }
    }
  }

  std::printf("\nworklist total %.4f s vs oracle total %.4f s (%.1fx)\n",
              WorklistTotal, OracleTotal,
              WorklistTotal > 0 ? OracleTotal / WorklistTotal : 0.0);
  Report.top()
      .add("models", sizeof(TailModels) / sizeof(TailModels[0]))
      .add("top_k", TopK)
      .add("worklist_total_sec", WorklistTotal)
      .add("oracle_total_sec", OracleTotal)
      .add("identical_to_oracle", AllIdentical);
  return Report.write() && AllIdentical ? 0 : 1;
}
