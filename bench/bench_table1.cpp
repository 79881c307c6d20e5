//===-- bench/bench_table1.cpp - Regenerates Table 1 ----------------------===//
//
// Table 1 of the paper: ShrinkRay on 16 Thingiverse models. For every model
// this harness prints input/output node counts (#i-ns/#o-ns), primitive
// counts (#i-p/#o-p), AST depths (#i-d/#o-d), the loop nest and closed-form
// class found (n-l, f), wall-clock time, and the rank of the first
// structure-exposing program in top-5 (r) — next to the paper's reported
// numbers. The trailing summary reproduces the headline aggregates: the
// paper reports 64% average size reduction and structure exposed for 81%
// (13/16) of models. The final row re-runs 510849:wardrobe with the
// reward-loops cost (the paper's wardrobe@ row).
//
// One synthesis of a model takes 0.5-25 ms, under tools/bench_diff.py's
// 0.05 s floor, so each model row (kind synth_passes) repeats its runs for
// passes = ceil(PassBudget / final e-nodes), a count fixed by the graph and
// not by the clock. time_sec and the phase fields are totals over the
// passes (0.15-0.8 s on a 4-core VM, so the gate compares them and a slower
// pipeline shows as a larger total); pass_median_sec is the median pass,
// and the printed t(s) column. The kind is a new name: the single-pass
// rows of earlier versions must not serve as their baseline.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/Models.h"

#include <algorithm>

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

void printHeader() {
  std::printf("%-24s | %5s %5s | %4s %4s | %4s %4s | %-12s %-10s | %7s | "
              "%2s | %5s\n",
              "model", "i-ns", "o-ns", "i-p", "o-p", "i-d", "o-d", "n-l",
              "f", "t(s)", "r", "sound");
  printRule();
}

/// Synthesis passes per model row: ceil(PassBudget / final e-nodes). A
/// pass costs about 2-7 us per e-node here.
constexpr uint64_t PassBudget = 60000;

void printMeasured(const std::string &Name, const MeasuredRow &Row,
                   double Seconds) {
  std::printf("%-24s | %5llu %5llu | %4llu %4llu | %4llu %4llu | %-12s "
              "%-10s | %7.4f | %2zu | %5s\n",
              Name.c_str(),
              static_cast<unsigned long long>(Row.InputNodes),
              static_cast<unsigned long long>(Row.OutputNodes),
              static_cast<unsigned long long>(Row.InputPrims),
              static_cast<unsigned long long>(Row.OutputPrims),
              static_cast<unsigned long long>(Row.InputDepth),
              static_cast<unsigned long long>(Row.OutputDepth),
              Row.Loops.c_str(), Row.Forms.c_str(), Seconds, Row.Rank,
              Row.Sound ? "yes" : "NO");
}

void printPaper(const PaperRow &P) {
  std::printf("%-24s | %5d %5d | %4d %4d | %4d %4d | %-12s %-10s | %7.2f "
              "| %2d |\n",
              "  (paper)", P.InputNodes, P.OutputNodes, P.InputPrims,
              P.OutputPrims, P.InputDepth, P.OutputDepth, P.Loops.c_str(),
              P.Forms.c_str(), P.TimeSec, P.Rank);
}

/// Runs ceil(PassBudget / \p ENodes) passes of \p Input, each pass one
/// synthesis under every option set of \p Opts, and bills them all to
/// \p Row. The first pass is the run already billed to \p Row (measureModel
/// and its reward-loops fallback). Returns the pass count and median pass.
std::pair<uint64_t, double>
repeatPasses(const TermPtr &Input, const std::vector<SynthesisOptions> &Opts,
             uint64_t ENodes, MeasuredRow &Row) {
  const uint64_t Passes = (PassBudget + ENodes - 1) / ENodes;
  std::vector<double> Times = {Row.TimeSec};
  for (uint64_t I = 1; I < Passes; ++I) {
    double Pass = 0.0;
    for (const SynthesisOptions &O : Opts) {
      const MeasuredRow Run =
          MeasuredRow::timesOf(Synthesizer(O).synthesize(Input).Stats);
      Pass += Run.TimeSec;
      Row.addTimes(Run);
    }
    Times.push_back(Pass);
  }
  std::sort(Times.begin(), Times.end());
  return {Passes, Times[Times.size() / 2]};
}

} // namespace

int main() {
  JsonReport Report("table1");
  std::printf("== Table 1: ShrinkRay on the 16-model benchmark corpus ==\n");
  std::printf("(default cost: AST size; k = 5; falls back to reward-loops "
              "when size hides small-count structure)\n\n");
  printHeader();

  double SumReduction = 0.0, SumDepthReduction = 0.0, SumPrimReduction = 0.0;
  double SumTime = 0.0;
  int Structured = 0, SoundCount = 0;
  std::vector<BenchmarkModel> Corpus = allModels();

  for (const BenchmarkModel &M : Corpus) {
    std::vector<SynthesisOptions> RowOpts(1);
    MeasuredRow Row = measureModel(M.FlatCsg, RowOpts[0]);
    // Small-repetition models need the reward-loops cost to *rank* their
    // loops into top-5 (see DESIGN.md); sizes still reported from the
    // default run.
    if (Row.Rank == 0 && M.ExpectStructure) {
      SynthesisOptions LoopOpts;
      LoopOpts.Cost = CostKind::RewardLoops;
      MeasuredRow LoopRow = measureModel(M.FlatCsg, LoopOpts);
      if (LoopRow.Rank != 0) {
        Row.Rank = LoopRow.Rank;
        Row.Loops = LoopRow.Loops + " (rl)";
        Row.Forms = LoopRow.Forms;
        Row.addTimes(LoopRow);
        RowOpts.push_back(LoopOpts);
      }
    }
    const auto [Passes, Median] =
        repeatPasses(M.FlatCsg, RowOpts, Row.ENodes, Row);
    printMeasured(M.Name + (M.Provenance == 'T' ? " [T]" : " [I]"), Row,
                  Median);
    printPaper(M.Paper);
    JsonObject &JRow = Report.row();
    JRow.add("model", M.Name).add("kind", "synth_passes");
    addMeasuredFields(JRow, Row);
    JRow.add("pass_median_sec", Median).add("passes", Passes);
    addResourceFields(JRow);

    SumReduction += reductionPct(Row.InputNodes, Row.OutputNodes);
    SumDepthReduction += reductionPct(Row.InputDepth, Row.OutputDepth);
    SumPrimReduction += reductionPct(Row.InputPrims, Row.OutputPrims);
    SumTime += Median;
    Structured += Row.Rank > 0 ? 1 : 0;
    SoundCount += Row.Sound ? 1 : 0;
  }

  printRule();
  double N = static_cast<double>(Corpus.size());
  std::printf("\n== Summary (paper's headline aggregates) ==\n");
  std::printf("avg size reduction      : %5.1f%%   (paper: 64%%)\n",
              SumReduction / N);
  std::printf("avg depth reduction     : %5.1f%%   (paper: 40.5%%)\n",
              SumDepthReduction / N);
  std::printf("avg primitive reduction : %5.1f%%   (paper: 65%%)\n",
              SumPrimReduction / N);
  std::printf("structure exposed       : %d/%zu = %.0f%%   (paper: 81%%)\n",
              Structured, Corpus.size(),
              100.0 * Structured / N);
  std::printf("soundness (sampling)    : %d/%zu\n", SoundCount,
              Corpus.size());
  std::printf("total time (pass medians): %.3f s\n", SumTime);

  // The wardrobe@ row: reward-loops exposes structure at the cost of size.
  std::printf("\n== 510849:wardrobe@ (reward-loops cost, paper Sec. 6.1) "
              "==\n");
  BenchmarkModel Wardrobe = modelByName("510849:wardrobe");
  SynthesisOptions LoopOpts;
  LoopOpts.Cost = CostKind::RewardLoops;
  MeasuredRow AtRow = measureModel(Wardrobe.FlatCsg, LoopOpts);
  printHeader();
  printMeasured("510849:wardrobe@", AtRow, AtRow.TimeSec);
  std::printf("%-24s | %5d %5d | %4d %4d | %4d %4d | %-12s %-10s | %7.2f "
              "| %2d |\n",
              "  (paper)", 149, 185, 15, 13, 11, 15, "n1,3; n1,3",
              "d2,(d2,d2)", 6.33, 1);
  std::printf("\nexpected shape: output may be *larger* than the input but "
              "exposes the quadratic shelf/rail loops\n");

  Report.top()
      .add("avg_size_reduction_pct", SumReduction / N)
      .add("avg_depth_reduction_pct", SumDepthReduction / N)
      .add("avg_prim_reduction_pct", SumPrimReduction / N)
      .add("structure_exposed", Structured)
      .add("sound", SoundCount)
      .add("models", Corpus.size())
      .add("total_time_sec", SumTime)
      .add("wardrobe_rl_rank", AtRow.Rank)
      .add("wardrobe_rl_output_nodes", AtRow.OutputNodes);
  return Report.write() ? 0 : 1;
}
