//===-- tests/warmstart_test.cpp - Warm == cold differential suite --------===//
//
// The snapshot-backed warm-start contract is byte-identity: a warm run —
// restored graph, resumed saturation, refreshed extraction engine — must
// produce exactly the programs, costs, and ranks a cold run of the same
// request produces, and for same-input requests the same final e-graph
// dump byte for byte. This suite checks that contract across the full
// Table 1 model corpus, all three near-miss kinds (deeper fuel, cost
// swap, localized numeric edit), and 1/2/4 runner threads, both at the
// Synthesizer level (manual WarmStart plumbing) and end-to-end through
// SynthesisService's snapshot tier. It also pins that capturing a
// snapshot (which moves when the extraction engine is derived) changes
// no output.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "cad/Sexp.h"
#include "models/Models.h"
#include "service/SynthesisService.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

using namespace shrinkray;

namespace {

// Sanitizer builds run the instrumented pipeline ~10x slower, so they
// sweep a 4-model cross-section (both provenances, the Figure 1 gear,
// and the largest regular-grid model) instead of all 16. The plain
// build — the one the acceptance bar names — always runs the full corpus.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SHRINKRAY_WARMSTART_REDUCED_CORPUS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SHRINKRAY_WARMSTART_REDUCED_CORPUS 1
#endif
#endif

std::vector<models::BenchmarkModel> corpus() {
#ifdef SHRINKRAY_WARMSTART_REDUCED_CORPUS
  return {models::modelByName("3362402:gear"),
          models::modelByName("3148599:box-tray"),
          models::modelByName("3094201:dice"),
          models::modelByName("64847:sd-rack")};
#else
  return models::allModels();
#endif
}

/// Byte-stable transcript of a result's observable output: every program's
/// canonical s-expression, its cost's raw IEEE bits, and the structure
/// rank. Two results with equal transcripts are indistinguishable to any
/// consumer of the pipeline.
std::string transcript(const SynthesisResult &R) {
  std::string Out;
  for (const RankedTerm &P : R.Programs) {
    uint64_t Bits = 0;
    static_assert(sizeof(Bits) == sizeof(P.Cost), "cost must be a double");
    std::memcpy(&Bits, &P.Cost, sizeof(Bits));
    Out += printSexp(P.T);
    Out += " # cost-bits ";
    Out += std::to_string(Bits);
    Out += "\n";
  }
  Out += "rank ";
  Out += std::to_string(R.structureRank());
  Out += "\n";
  return Out;
}

/// Packages a capture run's snapshot as the WarmStart seed a later request
/// would receive from the service tier.
WarmStart toWarmStart(const SynthesisResult &Captured, bool SameInput,
                      bool ExtractUsable) {
  EXPECT_TRUE(Captured.Snapshot.Present);
  WarmStart W;
  W.Graph = Captured.Snapshot.Graph;
  W.Cursors = Captured.Snapshot.Cursors;
  W.Extract = Captured.Snapshot.Extract;
  W.ExtractUsable = ExtractUsable && !W.Extract.empty();
  W.SameInput = SameInput;
  return W;
}

/// Rebuilds \p T with its first (preorder) numeric leaf nudged by an
/// exactly-representable delta — the one-parameter model edit the warm
/// path is built for. Keeps the leaf's Int/Float spelling.
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

TermPtr editedModel(const models::BenchmarkModel &M) {
  bool Edited = false;
  TermPtr E = editFirstNumericLeaf(M.FlatCsg, Edited);
  EXPECT_TRUE(Edited) << M.Name << " has no numeric leaf to edit";
  return E;
}

SynthesisOptions baseOptions(size_t Threads) {
  SynthesisOptions Opts;
  Opts.Limits.NumThreads = Threads;
  return Opts;
}

/// Near-miss kind 1: the capture ran out of iteration fuel one short of
/// the request; the warm run must resume saturation from the cursors and
/// land on the cold run's graph byte for byte.
void checkDeeperFuel(size_t Threads) {
  for (const models::BenchmarkModel &M : corpus()) {
    SynthesisOptions ColdOpts = baseOptions(Threads);
    ColdOpts.KeepGraphDump = true;
    SynthesisResult Cold = Synthesizer(ColdOpts).synthesize(M.FlatCsg);
    size_t ColdIters = Cold.Stats.Rewriting.numIterations();

    // Capture a run starved of its last iteration(s). Models that
    // saturate in one iteration cannot be starved; they exercise the
    // skip-the-replay path instead (stored Saturated, nothing to resume).
    SynthesisOptions CapOpts = baseOptions(Threads);
    CapOpts.CaptureSnapshot = true;
    if (ColdIters >= 2)
      CapOpts.Limits.IterLimit = ColdIters - 1;
    SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
    ASSERT_TRUE(Captured.Snapshot.Present) << M.Name;

    SynthesisOptions WarmOpts = baseOptions(Threads);
    WarmOpts.KeepGraphDump = true;
    SynthesisResult Warm = Synthesizer(WarmOpts).synthesizeWarm(
        M.FlatCsg, toWarmStart(Captured, /*SameInput=*/true,
                               /*ExtractUsable=*/true));

    EXPECT_TRUE(Warm.Stats.WarmStart) << M.Name;
    EXPECT_FALSE(Warm.Stats.WarmStartAborted) << M.Name;
    EXPECT_FALSE(Warm.Stats.WarmStartEdit) << M.Name;
    if (ColdIters >= 2) {
      EXPECT_GE(Warm.Stats.WarmResumedIters, 1u) << M.Name;
      EXPECT_EQ(Warm.Stats.WarmSkippedIters, ColdIters - 1) << M.Name;
    }
    EXPECT_EQ(transcript(Cold), transcript(Warm)) << M.Name;
    EXPECT_EQ(Cold.GraphDump, Warm.GraphDump) << M.Name;
  }
}

/// Near-miss kind 2: same input, different cost function. The captured
/// extraction engine is unusable (wrong cost), so the warm run re-derives
/// one over the restored graph; saturation itself is skipped entirely.
void checkCostSwap(size_t Threads) {
  for (const models::BenchmarkModel &M : corpus()) {
    SynthesisOptions ColdOpts = baseOptions(Threads);
    ColdOpts.Cost = CostKind::RewardLoops;
    ColdOpts.KeepGraphDump = true;
    SynthesisResult Cold = Synthesizer(ColdOpts).synthesize(M.FlatCsg);

    SynthesisOptions CapOpts = baseOptions(Threads);
    CapOpts.CaptureSnapshot = true; // CostKind::AstSize — the other cost
    SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
    ASSERT_TRUE(Captured.Snapshot.Present) << M.Name;
    size_t CapturedIters = Captured.Stats.Rewriting.numIterations();

    SynthesisOptions WarmOpts = baseOptions(Threads);
    WarmOpts.Cost = CostKind::RewardLoops;
    WarmOpts.KeepGraphDump = true;
    SynthesisResult Warm = Synthesizer(WarmOpts).synthesizeWarm(
        M.FlatCsg, toWarmStart(Captured, /*SameInput=*/true,
                               /*ExtractUsable=*/false));

    EXPECT_TRUE(Warm.Stats.WarmStart) << M.Name;
    EXPECT_FALSE(Warm.Stats.WarmStartAborted) << M.Name;
    EXPECT_EQ(Warm.Stats.WarmResumedIters, 0u) << M.Name;
    EXPECT_EQ(Warm.Stats.WarmSkippedIters, CapturedIters) << M.Name;
    EXPECT_EQ(transcript(Cold), transcript(Warm)) << M.Name;
    EXPECT_EQ(Cold.GraphDump, Warm.GraphDump) << M.Name;
  }
}

/// Near-miss kind 3: one numeric leaf edited. The warm run re-seeds the
/// edited term into the captured graph and resumes saturation until it
/// closes over the new subterm. The warm graph is a superset of the cold
/// one (it still holds the original parameter's classes), so only the
/// observable output — programs, costs, ranks — is compared, not dumps.
void checkEdit(size_t Threads) {
  for (const models::BenchmarkModel &M : corpus()) {
    TermPtr Edited = editedModel(M);

    SynthesisOptions CapOpts = baseOptions(Threads);
    CapOpts.CaptureSnapshot = true;
    SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
    ASSERT_TRUE(Captured.Snapshot.Present) << M.Name;
    const bool Saturated = Captured.Snapshot.Stop == StopReason::Saturated;

    // Saturated captures support an edit resume at the capture's own
    // budget. Iteration-limited captures qualify only with fuel to spare
    // (the resumed run must end on a quiescent tail), so those get a
    // deeper budget — and the cold reference must run at the same budget
    // for the differential to be meaningful.
    SynthesisOptions RunOpts = baseOptions(Threads);
    if (!Saturated)
      RunOpts.Limits.IterLimit = Captured.Snapshot.IterationsDone + 64;

    SynthesisResult Cold = Synthesizer(RunOpts).synthesize(Edited);
    SynthesisResult Warm = Synthesizer(RunOpts).synthesizeWarm(
        Edited, toWarmStart(Captured, /*SameInput=*/false,
                            /*ExtractUsable=*/true));

    if (Saturated) {
      EXPECT_TRUE(Warm.Stats.WarmStart) << M.Name;
      EXPECT_FALSE(Warm.Stats.WarmStartAborted) << M.Name;
      EXPECT_TRUE(Warm.Stats.WarmStartEdit) << M.Name;
    } else {
      // Two sound outcomes: the resumed run ends quiescent (frozen
      // frontier, the fuel-bounded fixpoint) and counts as a warm start,
      // or growth is detected and the pipeline falls back to cold (a
      // capture cut off mid-saturation). Either way the output must be
      // the cold output, byte for byte. Every corpus model saturates at
      // default fuel, so this branch guards non-default budgets.
      EXPECT_TRUE(Warm.Stats.WarmStart || Warm.Stats.WarmStartAborted)
          << M.Name;
    }
    EXPECT_EQ(transcript(Cold), transcript(Warm)) << M.Name;
  }
}

/// A capture syncs the extraction engine before the solve so the snapshot
/// can store it; every other run derives the engine once, after the
/// solve. The two schedules must produce the same programs, cost bits,
/// ranks and final graph. Plain builds run all 16 models, nintendo-slot
/// and gear included.
void checkCaptureIsInvisible(size_t Threads) {
  for (const models::BenchmarkModel &M : corpus()) {
    SynthesisOptions Off = baseOptions(Threads);
    Off.KeepGraphDump = true;
    SynthesisOptions On = Off;
    On.CaptureSnapshot = true;
    SynthesisResult Plain = Synthesizer(Off).synthesize(M.FlatCsg);
    SynthesisResult Captured = Synthesizer(On).synthesize(M.FlatCsg);
    EXPECT_FALSE(Plain.Snapshot.Present) << M.Name;
    EXPECT_TRUE(Captured.Snapshot.Present) << M.Name;
    EXPECT_EQ(transcript(Plain), transcript(Captured)) << M.Name;
    EXPECT_EQ(Plain.GraphDump, Captured.GraphDump) << M.Name;
  }
}

} // namespace

TEST(WarmStartTest, CaptureOnOffIdenticalOneThread) {
  checkCaptureIsInvisible(1);
}
TEST(WarmStartTest, CaptureOnOffIdenticalFourThreads) {
  checkCaptureIsInvisible(4);
}

TEST(WarmStartTest, DeeperFuelMatchesColdOneThread) { checkDeeperFuel(1); }
TEST(WarmStartTest, DeeperFuelMatchesColdTwoThreads) { checkDeeperFuel(2); }
TEST(WarmStartTest, DeeperFuelMatchesColdFourThreads) { checkDeeperFuel(4); }

TEST(WarmStartTest, CostSwapMatchesColdOneThread) { checkCostSwap(1); }
TEST(WarmStartTest, CostSwapMatchesColdTwoThreads) { checkCostSwap(2); }
TEST(WarmStartTest, CostSwapMatchesColdFourThreads) { checkCostSwap(4); }

TEST(WarmStartTest, EditMatchesColdOneThread) { checkEdit(1); }
TEST(WarmStartTest, EditMatchesColdTwoThreads) { checkEdit(2); }
TEST(WarmStartTest, EditMatchesColdFourThreads) { checkEdit(4); }

// Every corpus model saturates at default fuel, so checkEdit only sees
// Saturated captures. Cut gear's capture off mid-saturation to keep the
// iteration-limited edit path covered: the resume runs with deeper fuel
// and must either close warm or fall back to cold, with the cold output
// either way.
TEST(WarmStartTest, EditOfIterationLimitedCaptureMatchesCold) {
  models::BenchmarkModel M = models::modelByName("3362402:gear");
  TermPtr Edited = editedModel(M);
  for (size_t Threads : {1, 4}) {
    SynthesisOptions CapOpts = baseOptions(Threads);
    CapOpts.CaptureSnapshot = true;
    CapOpts.Limits.IterLimit = 20;
    SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
    ASSERT_TRUE(Captured.Snapshot.Present);
    ASSERT_EQ(Captured.Snapshot.Stop, StopReason::IterLimit);

    SynthesisOptions RunOpts = baseOptions(Threads);
    RunOpts.Limits.IterLimit = Captured.Snapshot.IterationsDone + 64;
    SynthesisResult Cold = Synthesizer(RunOpts).synthesize(Edited);
    SynthesisResult Warm = Synthesizer(RunOpts).synthesizeWarm(
        Edited, toWarmStart(Captured, /*SameInput=*/false,
                            /*ExtractUsable=*/true));
    EXPECT_TRUE(Warm.Stats.WarmStart || Warm.Stats.WarmStartAborted);
    EXPECT_EQ(transcript(Cold), transcript(Warm)) << Threads;
  }
}

// Saturation is bit-identical at any thread count, so a snapshot captured
// single-threaded must restore and resume under a different thread count
// with the same byte-identity guarantees.
TEST(WarmStartTest, CaptureAtOneThreadRestoresAtFour) {
  models::BenchmarkModel M = models::modelByName("3362402:gear");

  SynthesisOptions ColdOpts = baseOptions(4);
  ColdOpts.KeepGraphDump = true;
  SynthesisResult Cold = Synthesizer(ColdOpts).synthesize(M.FlatCsg);
  size_t ColdIters = Cold.Stats.Rewriting.numIterations();
  ASSERT_GE(ColdIters, 2u) << "gear must take >1 iteration to saturate";

  SynthesisOptions CapOpts = baseOptions(1);
  CapOpts.CaptureSnapshot = true;
  CapOpts.Limits.IterLimit = ColdIters - 1;
  SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
  ASSERT_TRUE(Captured.Snapshot.Present);

  SynthesisOptions WarmOpts = baseOptions(4);
  WarmOpts.KeepGraphDump = true;
  SynthesisResult Warm = Synthesizer(WarmOpts).synthesizeWarm(
      M.FlatCsg,
      toWarmStart(Captured, /*SameInput=*/true, /*ExtractUsable=*/true));

  EXPECT_TRUE(Warm.Stats.WarmStart);
  EXPECT_FALSE(Warm.Stats.WarmStartAborted);
  EXPECT_EQ(transcript(Cold), transcript(Warm));
  EXPECT_EQ(Cold.GraphDump, Warm.GraphDump);
}

// A corrupted WarmStart must abort to the cold pipeline and still return
// the cold result, flagged.
TEST(WarmStartTest, CorruptWarmStartFallsBackToCold) {
  models::BenchmarkModel M = models::modelByName("3148599:box-tray");

  SynthesisOptions CapOpts = baseOptions(1);
  CapOpts.CaptureSnapshot = true;
  SynthesisResult Captured = Synthesizer(CapOpts).synthesize(M.FlatCsg);
  ASSERT_TRUE(Captured.Snapshot.Present);

  SynthesisResult Cold = Synthesizer(baseOptions(1)).synthesize(M.FlatCsg);

  WarmStart W =
      toWarmStart(Captured, /*SameInput=*/true, /*ExtractUsable=*/true);
  W.Graph[W.Graph.size() / 2] ^= 0x40; // payload bit flip -> checksum fail

  SynthesisResult Warm =
      Synthesizer(baseOptions(1)).synthesizeWarm(M.FlatCsg, W);
  EXPECT_TRUE(Warm.Stats.WarmStartAborted);
  EXPECT_FALSE(Warm.Stats.WarmStart);
  EXPECT_EQ(transcript(Cold), transcript(Warm));
}

//===----------------------------------------------------------------------===//
// End-to-end through the service snapshot tier.
//===----------------------------------------------------------------------===//

namespace {

std::string tempDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "/" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

service::JobSpec jobFor(const TermPtr &Input, SynthesisOptions Opts = {}) {
  service::JobSpec Spec;
  Spec.Name = "warmstart";
  Spec.Input = Input;
  Spec.Options = Opts;
  return Spec;
}

} // namespace

TEST(WarmStartServiceTest, SecondDeeperRequestWarmStarts) {
  models::BenchmarkModel M = models::modelByName("3362402:gear");

  service::ServiceConfig Cold;
  Cold.NumWorkers = 1;
  Cold.EnableWarmStart = false;
  service::SynthesisService ColdSvc(Cold);
  const service::JobOutcome &Ref =
      ColdSvc.wait(ColdSvc.submit(jobFor(M.FlatCsg)));
  ASSERT_EQ(Ref.St, service::JobOutcome::Status::Succeeded);

  service::ServiceConfig Warm;
  Warm.NumWorkers = 1;
  service::SynthesisService Svc(Warm);

  SynthesisOptions Starved;
  Starved.Limits.IterLimit = 2;
  const service::JobOutcome &First =
      Svc.wait(Svc.submit(jobFor(M.FlatCsg, Starved)));
  ASSERT_EQ(First.St, service::JobOutcome::Status::Succeeded);
  EXPECT_EQ(Svc.cache().stats().SnapshotStores, 1u);

  // Same input, full fuel: a different result-cache key, but a snapshot
  // hit — the run resumes from iteration 2 instead of starting over.
  const service::JobOutcome &Second =
      Svc.wait(Svc.submit(jobFor(M.FlatCsg)));
  ASSERT_EQ(Second.St, service::JobOutcome::Status::Succeeded);
  EXPECT_TRUE(Second.Result.Stats.WarmStart);
  EXPECT_FALSE(Second.Result.Stats.WarmStartAborted);
  EXPECT_GE(Second.Result.Stats.WarmSkippedIters, 2u);
  EXPECT_EQ(Svc.cache().stats().SnapshotHits, 1u);

  EXPECT_EQ(transcript(Ref.Result), transcript(Second.Result));
}

TEST(WarmStartServiceTest, EditedRequestWarmStartsAcrossProcessRestart) {
  models::BenchmarkModel M = models::modelByName("3148599:box-tray");
  TermPtr Edited = editedModel(M);
  std::string Dir = tempDir("warmstart_svc_edit");

  service::ServiceConfig ColdCfg;
  ColdCfg.NumWorkers = 1;
  ColdCfg.EnableWarmStart = false;
  service::SynthesisService ColdSvc(ColdCfg);
  const service::JobOutcome &Ref =
      ColdSvc.wait(ColdSvc.submit(jobFor(Edited)));
  ASSERT_EQ(Ref.St, service::JobOutcome::Status::Succeeded);

  // First process: capture the unedited model's snapshot to disk.
  {
    service::ServiceConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.CacheDir = Dir;
    service::SynthesisService Svc(Cfg);
    const service::JobOutcome &Out = Svc.wait(Svc.submit(jobFor(M.FlatCsg)));
    ASSERT_EQ(Out.St, service::JobOutcome::Status::Succeeded);
    EXPECT_EQ(Svc.cache().stats().SnapshotStores, 1u);
  }

  // Second process: the edited model misses the result cache (different
  // exact input) but lands on the captured structure snapshot.
  service::ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.CacheDir = Dir;
  service::SynthesisService Svc(Cfg);
  const service::JobOutcome &Out = Svc.wait(Svc.submit(jobFor(Edited)));
  ASSERT_EQ(Out.St, service::JobOutcome::Status::Succeeded);
  EXPECT_TRUE(Out.Result.Stats.WarmStart);
  EXPECT_TRUE(Out.Result.Stats.WarmStartEdit);
  EXPECT_FALSE(Out.Result.Stats.WarmStartAborted);
  EXPECT_EQ(Svc.cache().stats().SnapshotHits, 1u);

  EXPECT_EQ(transcript(Ref.Result), transcript(Out.Result));
  std::filesystem::remove_all(Dir);
}

TEST(WarmStartServiceTest, LargeEditRunsCold) {
  // Edit more leaves than WarmMaxEditedLeaves allows: the snapshot is
  // found but judged unusable, and the job runs cold without aborting.
  models::BenchmarkModel M = models::modelByName("3094201:dice");
  TermPtr Edited = models::injectNoise(M.FlatCsg, 0.001, 7);

  service::ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.WarmMaxEditedLeaves = 2;
  service::SynthesisService Svc(Cfg);
  const service::JobOutcome &First = Svc.wait(Svc.submit(jobFor(M.FlatCsg)));
  ASSERT_EQ(First.St, service::JobOutcome::Status::Succeeded);

  const service::JobOutcome &Out = Svc.wait(Svc.submit(jobFor(Edited)));
  ASSERT_EQ(Out.St, service::JobOutcome::Status::Succeeded);
  EXPECT_FALSE(Out.Result.Stats.WarmStart);
  EXPECT_FALSE(Out.Result.Stats.WarmStartAborted);
}

TEST(WarmStartServiceTest, MultiRoundJobsBypassSnapshotTier) {
  models::BenchmarkModel M = models::modelByName("3148599:box-tray");
  SynthesisOptions Opts;
  Opts.MainLoopIters = 2;

  service::ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  service::SynthesisService Svc(Cfg);
  const service::JobOutcome &Out = Svc.wait(Svc.submit(jobFor(M.FlatCsg, Opts)));
  ASSERT_EQ(Out.St, service::JobOutcome::Status::Succeeded);
  service::ResultCache::Stats St = Svc.cache().stats();
  EXPECT_EQ(St.SnapshotStores, 0u);
  EXPECT_EQ(St.SnapshotHits, 0u);
  EXPECT_EQ(St.SnapshotMisses, 0u);
}
