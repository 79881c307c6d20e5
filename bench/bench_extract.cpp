//===-- bench/bench_extract.cpp - Extraction-engine benchmark -------------===//
//
// Per-phase timing of the extraction engines on Table 1's tail models (the
// models where extraction and the solvers dominate end-to-end synthesis —
// see ROADMAP.md). For each model the harness reports JSON rows keyed by
// (model, kind):
//
//   synth_rewrite / synth_solve / synth_extract
//       phase breakdown of one full Synthesizer run (SynthesisStats);
//   saturate
//       one full saturation of the input, the graph the rows below read;
//   onebest_passes / onebest_oracle_passes
//       worklist one-best derivation vs the whole-graph fixed point;
//   kbest_passes / kbest_oracle_passes
//       construction plus extract(root) of the lazy k-best engine (which
//       does its work inside extract) and of the fixed-point oracle.
//
// One pass of an engine row takes well under a millisecond, so each
// repeats passes = ceil(budget / saturated e-nodes), a count fixed by the
// graph and not by the clock: time_sec is the total over the passes
// (0.1-0.5 s on a 4-core VM, clear of tools/bench_diff.py's 0.05 s floor,
// so the gate compares them and a slower engine shows as a larger total),
// and pass_median_sec is the median pass. The kinds are new names: the
// single-pass rows of earlier versions must not serve as their baseline.
// Every engine result is cross-checked against its oracle before timing
// is reported.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ExtractOracle.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"

#include <algorithm>

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

constexpr size_t TopK = 5;

/// Tail models: slowest end-to-end in Table 1.
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

/// Runs \p Pass ceil(\p Budget / e-nodes) times and reports the total as
/// the row's time_sec, with the per-pass median beside it. Returns the
/// median.
template <typename Fn>
double repeatRow(JsonReport &Report, const std::string &Model,
                 const char *Kind, size_t Budget, const EGraph &G, Fn Pass) {
  const size_t Passes = (Budget + G.numNodes() - 1) / G.numNodes();
  std::vector<double> Times;
  double Total = 0.0;
  for (size_t I = 0; I < Passes; ++I) {
    WallTimer T;
    Pass();
    Times.push_back(T.seconds());
    Total += Times.back();
  }
  std::sort(Times.begin(), Times.end());
  const double Median = Times[Times.size() / 2];
  JsonObject &Row = Report.row()
                        .add("model", Model)
                        .add("kind", Kind)
                        .add("time_sec", Total)
                        .add("pass_median_sec", Median)
                        .add("passes", Passes)
                        .add("classes", G.numClasses())
                        .add("nodes", G.numNodes());
  addResourceFields(Row);
  std::printf("  %-18s %8.4f s   (%zu passes, median %.5f s)\n", Kind, Total,
              Passes, Median);
  return Median;
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

    EGraph G;
    EClassId Root = G.addTerm(M.FlatCsg);
    G.rebuild();
    WallTimer SaturateTimer;
    Runner().run(G, pipelineRules());
    timeRow(Report, Name, "saturate", SaturateTimer.seconds(),
            G.numClasses(), G.numNodes());

    std::optional<double> OneCost, OneOracleCost;
    TermPtr OneTerm, OneOracleTerm;
    std::vector<RankedTerm> Lazy, Oracle;
    const double OneSec =
        repeatRow(Report, Name, "onebest_passes", 2000000, G, [&] {
          Extractor E(G, Cost);
          OneCost = E.bestCost(Root);
          OneTerm = E.extract(Root);
        });
    const double OneOracleSec =
        repeatRow(Report, Name, "onebest_oracle_passes", 400000, G, [&] {
          ReferenceExtractor E(G, Cost);
          OneOracleCost = E.bestCost(Root);
          OneOracleTerm = E.extract(Root);
        });
    const double KSec = repeatRow(Report, Name, "kbest_passes", 1000000, G, [&] {
      KBestExtractor E(G, Cost, TopK);
      Lazy = E.extract(Root);
    });
    const double KOracleSec =
        repeatRow(Report, Name, "kbest_oracle_passes", 100000, G, [&] {
          ReferenceKBestExtractor E(G, Cost, TopK);
          Oracle = E.extract(Root);
        });

    WorklistTotal += OneSec + KSec;
    OracleTotal += OneOracleSec + KOracleSec;

    bool Identical = sameRanking(Lazy, Oracle) && OneCost == OneOracleCost &&
                     termEquals(OneTerm, OneOracleTerm);
    if (!Identical)
      std::printf("  !! engine/oracle DISAGREE on %s\n", Name);
    AllIdentical &= Identical;
  }

  // Whole pipeline, serial vs 4 threads on the same workload (full
  // saturation from scratch, then top-k extraction of the final graph).
  // Only the search phase is parallel, so the par4 row means 4 search
  // threads; apply and extraction run serially in both rows.
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
      std::vector<RankedTerm> Ranking = KPar.extract(RootT);
      double ExtractSec = ExtractTimer.seconds();

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

  std::printf("\nengine pass medians %.4f s vs oracle %.4f s (%.1fx)\n",
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
