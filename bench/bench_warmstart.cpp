//===-- bench/bench_warmstart.cpp - Snapshot-backed warm starts -----------===//
//
// Cold-vs-warm wall clock for the snapshot tier, on the two Table 1
// models with the largest saturated graphs:
//
//   gear          — saturates in 61 iterations (9100 e-nodes);
//   nintendo-slot — saturates in 14 iterations (1522 e-nodes).
//
// Both captures are Saturated snapshots, so a same-input warm start skips
// saturation outright and an edit resumes from the stored cursors only
// until the graph closes over the changed leaf. The snapshot is taken
// before solve, and solve is now the largest part of both cold runs
// (gear: about 0.09 of 0.14 s), so the warm saving is small.
//
// Per model, three timed scenarios against the cold runs at the same
// budgets: warm-deeper-fuel (same input, larger IterLimit) and warm-edit
// (one numeric leaf changed). The harness is a hard gate three ways —
// the warm run must really be warm (restored, not aborted to cold), its
// output must be byte-identical to the cold run's (programs, costs,
// ranks), and its wall clock must come in under 0.5x cold. Rows land in
// BENCH_warmstart.json and join the blocking bench_diff gate in CI.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/Models.h"

#include <cstring>

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

/// Byte-exact transcript: program sexp + raw cost bits + structure rank.
/// (Cost bits, not a rounded print, so "identical" means identical.)
std::string transcript(const SynthesisResult &R) {
  std::string S;
  for (const RankedTerm &P : R.Programs) {
    uint64_t Bits;
    std::memcpy(&Bits, &P.Cost, sizeof Bits);
    S += printSexp(P.T) + " # " + std::to_string(Bits) + "\n";
  }
  S += "rank " + std::to_string(R.structureRank()) + "\n";
  return S;
}

TermPtr editFirstNumericLeaf(const TermPtr &T, bool &Edited) {
  if (Edited)
    return T;
  OpKind K = T->kind();
  if (K == OpKind::Int) {
    Edited = true;
    return tInt(static_cast<int64_t>(T->op().numericValue()) + 1);
  }
  if (K == OpKind::Float) {
    Edited = true;
    return tFloat(T->op().numericValue() + 0.03125);
  }
  std::vector<TermPtr> Kids;
  Kids.reserve(T->numChildren());
  bool Changed = false;
  for (const TermPtr &Kid : T->children()) {
    TermPtr NewKid = editFirstNumericLeaf(Kid, Edited);
    Changed |= NewKid != Kid;
    Kids.push_back(std::move(NewKid));
  }
  return Changed ? makeTerm(T->op(), std::move(Kids)) : T;
}

SynthesisOptions optionsAt(size_t IterLimit) {
  SynthesisOptions Opts;
  Opts.Limits.IterLimit = IterLimit;
  // The budgets below run gear and nintendo-slot well past the default
  // 60 s wall clock on slow machines; a TimeLimit stop would invalidate
  // both the capture and the cold reference.
  Opts.Limits.TimeLimitSec = 600.0;
  return Opts;
}

WarmStart toWarmStart(const SynthesisResult &Captured, bool SameInput) {
  WarmStart W;
  W.Graph = Captured.Snapshot.Graph;
  W.Cursors = Captured.Snapshot.Cursors;
  W.Extract = Captured.Snapshot.Extract;
  W.ExtractUsable = true;
  W.SameInput = SameInput;
  return W;
}

void printHeader() {
  std::printf("%-28s %-16s | %8s | %7s %7s %7s | %6s | %5s %5s\n", "model",
              "kind", "t(s)", "rw(s)", "ex(s)", "rst(s)", "ratio", "warm",
              "same");
  printRule('-', 104);
}

struct ScenarioVerdict {
  double Ratio = 0.0;
  bool Warm = false;
  bool Identical = false;
  bool ok() const { return Warm && Identical && Ratio < 0.5; }
};

void addRow(JsonReport &Report, const std::string &Model, const char *Kind,
            const SynthesisResult &R, double Ratio, bool Warm,
            bool Identical) {
  std::printf("%-28s %-16s | %8.3f | %7.3f %7.3f %7.3f | %6.2f | %5s %5s\n",
              Model.c_str(), Kind, R.Stats.Seconds, R.Stats.RewriteSeconds,
              R.Stats.ExtractSeconds, R.Stats.WarmRestoreSeconds, Ratio,
              Warm ? "yes" : (R.Stats.WarmStart || R.Stats.WarmStartAborted
                                  ? "NO"
                                  : "-"),
              Identical ? "yes" : "NO");
  Report.row()
      .add("model", Model)
      .add("kind", Kind)
      .add("time_sec", R.Stats.Seconds)
      .add("rewrite_sec", R.Stats.RewriteSeconds)
      .add("extract_sec", R.Stats.ExtractSeconds)
      .add("warm_restore_sec", R.Stats.WarmRestoreSeconds)
      .add("resumed_iters", R.Stats.WarmResumedIters)
      .add("skipped_iters", R.Stats.WarmSkippedIters)
      .add("warm", Warm)
      .add("cold_ratio", Ratio)
      .add("outputs_identical", Identical);
}

/// Runs one cold/warm pair at \p IterLimit and records both rows.
ScenarioVerdict runScenario(JsonReport &Report, const std::string &Model,
                            const char *ColdKind, const char *WarmKind,
                            const TermPtr &Input,
                            const SynthesisResult &Captured, bool SameInput,
                            size_t IterLimit) {
  const SynthesisOptions Opts = optionsAt(IterLimit);
  SynthesisResult Cold = Synthesizer(Opts).synthesize(Input);
  SynthesisResult Warm =
      Synthesizer(Opts).synthesizeWarm(Input, toWarmStart(Captured, SameInput));

  ScenarioVerdict V;
  V.Ratio = Cold.Stats.Seconds > 0 ? Warm.Stats.Seconds / Cold.Stats.Seconds
                                   : 1.0;
  V.Warm = Warm.Stats.WarmStart && !Warm.Stats.WarmStartAborted;
  V.Identical = transcript(Cold) == transcript(Warm);
  addRow(Report, Model, ColdKind, Cold, 1.0, false, true);
  addRow(Report, Model, WarmKind, Warm, V.Ratio, V.Warm, V.Identical);
  if (!V.ok())
    std::fprintf(stderr,
                 "[bench_warmstart] FAIL: %s %s (warm=%d identical=%d "
                 "ratio=%.2f, need warm+identical and ratio < 0.5)\n",
                 Model.c_str(), WarmKind, V.Warm ? 1 : 0, V.Identical ? 1 : 0,
                 V.Ratio);
  return V;
}

} // namespace

int main() {
  JsonReport Report("warmstart");
  std::printf("== Snapshot-backed warm starts: cold vs warm wall clock ==\n\n");
  printHeader();

  // (model, capture fuel, request fuel for the deeper/edit scenarios).
  // Both models saturate far inside every budget (gear at 61, nintendo-slot
  // at 14), so each capture is a Saturated snapshot and the larger request
  // fuel leaves the edit resumes re-saturation headroom.
  struct Config {
    const char *Model;
    size_t CaptureIters, DeeperIters, EditIters;
  };
  const Config Configs[] = {
      {"3362402:gear", 600, 700, 1200},
      {"3432939:nintendo-slot", 8000, 8200, 8200},
  };

  bool AllOk = true;
  for (const Config &C : Configs) {
    const BenchmarkModel M = modelByName(C.Model);
    bool Edited = false;
    const TermPtr EditedInput = editFirstNumericLeaf(M.FlatCsg, Edited);

    SynthesisOptions CapOpts = optionsAt(C.CaptureIters);
    CapOpts.CaptureSnapshot = true;
    SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
    if (!Captured.Snapshot.Present) {
      std::fprintf(stderr, "[bench_warmstart] FAIL: %s capture missing\n",
                   C.Model);
      AllOk = false;
      continue;
    }
    addRow(Report, M.Name, "capture", Captured, 1.0, false, true);

    AllOk &= runScenario(Report, M.Name, "cold-deeper", "warm-deeper-fuel",
                         M.FlatCsg, Captured, /*SameInput=*/true,
                         C.DeeperIters)
                 .ok();
    AllOk &= runScenario(Report, M.Name, "cold-edit", "warm-edit", EditedInput,
                         Captured, /*SameInput=*/false, C.EditIters)
                 .ok();
  }
  printRule('-', 104);

  Report.top().add("all_gates_passed", AllOk);
  std::printf("\nwarm-start gates (warm + identical + <0.5x cold): %s\n",
              AllOk ? "OK" : "FAILED");
  return Report.write() && AllOk ? 0 : 1;
}
