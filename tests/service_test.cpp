//===-- tests/service_test.cpp - Synthesis service layer ------------------===//
//
// Coverage for the service layer (scheduler + cancellation + result
// cache):
//
//  * scheduler determinism: N concurrent jobs produce outputs
//    byte-identical to the same jobs run on one worker;
//  * deadline-cancelled jobs come back promptly with partial-result
//    status and the pool keeps serving later jobs (no deadlock);
//  * queued-job cancellation completes without running;
//  * the content-addressed cache: repeat submissions hit, option changes
//    miss, entries persist across cache instances through the disk
//    directory, and corrupt files degrade to misses;
//  * cancellation-token semantics (inert default, deadline latch).
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "service/SynthesisService.h"

#include "SlowInput.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

/// Byte-exact transcript of a job's programs (what "identical outputs"
/// means throughout this suite).
std::string transcript(const JobOutcome &Out) {
  std::string S;
  for (const RankedTerm &P : Out.Result.Programs)
    S += printSexp(P.T) + "\n";
  return S;
}

/// Runs the whole bench corpus through a service with \p Workers workers
/// and returns one transcript per model, submission order.
std::vector<std::string> runCorpus(size_t Workers, bool EnableCache) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.EnableCache = EnableCache;
  SynthesisService Service(Cfg);
  std::vector<SynthesisService::JobId> Ids;
  for (const models::BenchmarkModel &M : models::allModels()) {
    JobSpec Spec;
    Spec.Name = M.Name;
    Spec.Input = M.FlatCsg;
    Ids.push_back(Service.submit(std::move(Spec)));
  }
  std::vector<std::string> Out;
  for (SynthesisService::JobId Id : Ids) {
    const JobOutcome &O = Service.wait(Id);
    EXPECT_EQ(O.St, JobOutcome::Status::Succeeded);
    Out.push_back(transcript(O));
  }
  return Out;
}

/// An input that keeps a worker busy for over a second by construction
/// (SlowInput.h: a 900-element chain with no closed form, whose suffix
/// sites are all solved). Every corpus model finishes in milliseconds.
TermPtr slowInput() { return slowIrregularChain(); }

std::string tempDir(const char *Name) {
  std::string Dir = testing::TempDir() + "/" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cancellation tokens
//===----------------------------------------------------------------------===//

TEST(CancelToken, InertDefaultNeverCancels) {
  CancelToken T;
  EXPECT_FALSE(T.valid());
  EXPECT_FALSE(T.cancelled());
  T.cancel(); // no-op, no crash
  EXPECT_FALSE(T.cancelled());
}

TEST(CancelToken, CancelIsSharedAcrossCopies) {
  CancelToken A = CancelToken::make();
  CancelToken B = A;
  EXPECT_FALSE(B.cancelled());
  A.cancel();
  EXPECT_TRUE(B.cancelled());
}

TEST(CancelToken, DeadlineLatches) {
  CancelToken T = CancelToken::withDeadline(0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.cancelled()); // latched, still true
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SynthesisServiceTest, ConcurrentJobsMatchSequentialByteForByte) {
  std::vector<std::string> Sequential = runCorpus(1, /*EnableCache=*/false);
  std::vector<std::string> Concurrent = runCorpus(4, /*EnableCache=*/false);
  ASSERT_EQ(Sequential.size(), Concurrent.size());
  std::vector<models::BenchmarkModel> Corpus = models::allModels();
  for (size_t I = 0; I < Sequential.size(); ++I) {
    EXPECT_EQ(Sequential[I], Concurrent[I]) << Corpus[I].Name;
    EXPECT_FALSE(Sequential[I].empty()) << Corpus[I].Name;
  }
}

TEST(SynthesisServiceTest, DeadlineReturnsPartialResultWithoutDeadlock) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 2;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);

  // An impossible budget on a slow input: the job must come back
  // Cancelled — with whatever programs the graph held — and the pool must
  // keep serving.
  JobSpec Slow;
  Slow.Name = "slow";
  Slow.Input = slowInput();
  Slow.DeadlineSec = 0.005;
  SynthesisService::JobId SlowId = Service.submit(std::move(Slow));

  const JobOutcome &SlowOut = Service.wait(SlowId);
  EXPECT_EQ(SlowOut.St, JobOutcome::Status::Cancelled);
  EXPECT_TRUE(SlowOut.Result.Stats.Cancelled);
  // Partial result: extraction still returned the input respelling (or
  // better) from the partially saturated graph.
  EXPECT_FALSE(SlowOut.Result.Programs.empty());

  // The pool is alive: a quick follow-up job completes normally.
  JobSpec Quick;
  Quick.Name = "quick";
  Quick.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  const JobOutcome &QuickOut = Service.wait(Service.submit(std::move(Quick)));
  EXPECT_EQ(QuickOut.St, JobOutcome::Status::Succeeded);
  EXPECT_FALSE(QuickOut.Result.Programs.empty());
}

TEST(SynthesisServiceTest, DeadlineSweepLandsMidPipelineAndStaysPartial) {
  // Deadlines at several magnitudes land at different pipeline points —
  // during saturation, mid-solve (the solver pipeline polls the token
  // between stages and inside the trig frequency scan), or after
  // completion. Whichever fires, the job must come back promptly as either
  // a full success or a Cancelled outcome whose partial result is still
  // well-formed, and the pool must survive the whole sweep.
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);

  const TermPtr Input = slowInput();
  for (double DeadlineSec : {0.002, 0.01, 0.05, 0.25, 1.5}) {
    JobSpec Spec;
    Spec.Name = "sweep";
    Spec.Input = Input;
    Spec.DeadlineSec = DeadlineSec;
    const JobOutcome &Out = Service.wait(Service.submit(std::move(Spec)));
    if (Out.St == JobOutcome::Status::Cancelled) {
      EXPECT_TRUE(Out.Result.Stats.Cancelled);
      EXPECT_FALSE(Out.Result.Programs.empty());
    } else {
      EXPECT_EQ(Out.St, JobOutcome::Status::Succeeded);
      EXPECT_FALSE(Out.Result.Stats.Cancelled);
      EXPECT_FALSE(Out.Result.Programs.empty());
    }
  }

  // The worker is still serving after repeated mid-pipeline cancellations.
  JobSpec Quick;
  Quick.Name = "after-sweep";
  Quick.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  const JobOutcome &QuickOut = Service.wait(Service.submit(std::move(Quick)));
  EXPECT_EQ(QuickOut.St, JobOutcome::Status::Succeeded);
}

TEST(SynthesisServiceTest, CancelQueuedJobCompletesWithoutRunning) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1; // one worker: the second submission must queue
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);

  JobSpec Slow;
  Slow.Name = "head";
  Slow.Input = slowInput();
  SynthesisService::JobId Head = Service.submit(std::move(Slow));

  JobSpec Queued;
  Queued.Name = "queued";
  Queued.Input = models::modelByName("3362402:gear").FlatCsg;
  SynthesisService::JobId Victim = Service.submit(std::move(Queued));
  EXPECT_TRUE(Service.cancel(Victim));

  const JobOutcome &VictimOut = Service.wait(Victim);
  EXPECT_EQ(VictimOut.St, JobOutcome::Status::Cancelled);
  EXPECT_TRUE(VictimOut.Result.Programs.empty()); // never ran
  EXPECT_EQ(VictimOut.RunSec, 0.0);

  const JobOutcome &HeadOut = Service.wait(Head);
  EXPECT_EQ(HeadOut.St, JobOutcome::Status::Succeeded);
  EXPECT_FALSE(Service.cancel(Victim)); // already done
}

TEST(SynthesisServiceTest, DestructorCompletesQueuedJobsWithoutHanging) {
  // Destroying a service with work still queued must cancel the running
  // job cooperatively and complete the queued ones as Cancelled —
  // reaching the end of this scope (no deadlocked worker join, no
  // abandoned Pending job) is the assertion.
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = false;
  {
    SynthesisService Service(Cfg);
    JobSpec Spec;
    Spec.Input = models::modelByName("3362402:gear").FlatCsg;
    Service.submit(Spec);
    Service.submit(Spec);
    Service.submit(Spec);
  }
  SUCCEED();
}

TEST(SynthesisServiceTest, ScadSourceJobsAndParseFailures) {
  SynthesisService Service;

  JobSpec Scad;
  Scad.Name = "scad";
  Scad.Source = "for (i = [0:3]) translate([i*2, 0, 0]) cube(1);\n";
  Scad.SourceIsScad = true;
  const JobOutcome &ScadOut = Service.wait(Service.submit(std::move(Scad)));
  EXPECT_EQ(ScadOut.St, JobOutcome::Status::Succeeded);
  EXPECT_FALSE(ScadOut.Result.Programs.empty());

  JobSpec Bad;
  Bad.Name = "bad";
  Bad.Source = "(Union Unit"; // unbalanced
  const JobOutcome &BadOut = Service.wait(Service.submit(std::move(Bad)));
  EXPECT_EQ(BadOut.St, JobOutcome::Status::Failed);
  EXPECT_FALSE(BadOut.Error.empty());

  JobSpec NotFlat;
  NotFlat.Name = "loops-input";
  // Loopy input is flattened first, then synthesized.
  NotFlat.Source = "(Fold Union Empty (Cons (Translate (Vec3 2 0 0) Unit) "
                   "(Cons (Translate (Vec3 4 0 0) Unit) Nil)))";
  const JobOutcome &FlatOut =
      Service.wait(Service.submit(std::move(NotFlat)));
  EXPECT_EQ(FlatOut.St, JobOutcome::Status::Succeeded);
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(SynthesisServiceTest, RepeatSubmissionHitsCache) {
  SynthesisService Service; // default config: memory cache enabled
  JobSpec First;
  First.Input = models::modelByName("3148599:box-tray").FlatCsg;
  const JobOutcome &Cold = Service.wait(Service.submit(First));
  ASSERT_EQ(Cold.St, JobOutcome::Status::Succeeded);

  const JobOutcome &Warm = Service.wait(Service.submit(First));
  EXPECT_EQ(Warm.St, JobOutcome::Status::CacheHit);
  EXPECT_EQ(transcript(Warm), transcript(Cold));

  // A different option set is a different key: no false hit.
  JobSpec OtherK = First;
  OtherK.Options.TopK = 2;
  const JobOutcome &Other = Service.wait(Service.submit(OtherK));
  EXPECT_EQ(Other.St, JobOutcome::Status::Succeeded);
}

TEST(ResultCacheTest, FingerprintsSeparateResultRelevantOptions) {
  SynthesisOptions A;
  SynthesisOptions B = A;
  EXPECT_EQ(optionsFingerprint(A), optionsFingerprint(B));
  B.TopK = 3;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  B = A;
  B.Cost = CostKind::RewardLoops;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  B = A;
  B.Solver.Epsilon = 0.5;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  // Thread count cannot change results (bit-identical saturation) and
  // must not fragment the cache.
  B = A;
  B.Limits.NumThreads = 7;
  EXPECT_EQ(optionsFingerprint(A), optionsFingerprint(B));
  // The default options under schema version 2, before suffix sites of a
  // fitted list were skipped: their cached results must not be served.
  EXPECT_NE(optionsFingerprint(A), 0x819fed3bc0799f8dull);
  // Likewise under schema version 3, before fold-intro added whole spine
  // lists (spines past the iteration fuel came back as partial loops).
  EXPECT_NE(optionsFingerprint(A), 0x7611ece956ab8c40ull);
}

TEST(ResultCacheTest, InputKeyIsValueLevel) {
  // Int/Float respellings of the same model address the same entry.
  TermPtr IntSpelling =
      parseSexp("(Translate (Vec3 1 2 3) Unit)").Value;
  TermPtr FloatSpelling =
      parseSexp("(Translate (Vec3 1.0 2.0 3.0) Unit)").Value;
  ASSERT_TRUE(IntSpelling && FloatSpelling);
  SynthesisOptions Opts;
  EXPECT_EQ(makeCacheKey(IntSpelling, 42, Opts).hex(),
            makeCacheKey(FloatSpelling, 42, Opts).hex());
}

TEST(ResultCacheTest, DiskEntriesPersistAcrossInstances) {
  const std::string Dir = tempDir("srcache_persist");
  CacheKey Key = makeCacheKey(parseSexp("(Union Unit Sphere)").Value, 7,
                              SynthesisOptions());
  std::vector<RankedTerm> Programs;
  Programs.push_back({parseSexp("(Union Unit Sphere)").Value, 3.0});
  Programs.push_back({parseSexp("(Union Sphere Unit)").Value, 3.5});

  {
    ResultCache Writer(Dir);
    Writer.store(Key, Programs);
  }
  ResultCache Reader(Dir); // fresh instance: memory empty, disk warm
  std::optional<std::vector<RankedTerm>> Hit = Reader.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  ASSERT_EQ(Hit->size(), 2u);
  EXPECT_TRUE(termEquals((*Hit)[0].T, Programs[0].T));
  EXPECT_TRUE(termEquals((*Hit)[1].T, Programs[1].T));
  EXPECT_EQ((*Hit)[0].Cost, 3.0);
  EXPECT_EQ(Reader.stats().DiskHits, 1u);

  // Second lookup is served from memory.
  ASSERT_TRUE(Reader.lookup(Key).has_value());
  EXPECT_EQ(Reader.stats().DiskHits, 1u);
  EXPECT_EQ(Reader.stats().Hits, 2u);
}

TEST(ResultCacheTest, CorruptDiskEntriesDegradeToMisses) {
  const std::string Dir = tempDir("srcache_corrupt");
  CacheKey Key = makeCacheKey(parseSexp("(Union Unit Sphere)").Value, 7,
                              SynthesisOptions());
  {
    ResultCache Writer(Dir);
    Writer.store(Key, {{parseSexp("Unit").Value, 1.0}});
  }
  // Truncate the entry file mid-way.
  const std::string Path = Dir + "/" + Key.hex() + ".srres";
  ASSERT_TRUE(std::filesystem::exists(Path));
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "shrinkray-result-cache v1\nkey " << Key.hex() << "\nprograms 2\n";
  }
  ResultCache Reader(Dir);
  EXPECT_FALSE(Reader.lookup(Key).has_value());
  EXPECT_EQ(Reader.stats().Misses, 1u);

  // A key whose file never existed is a plain miss.
  CacheKey Other = Key;
  Other.InputHash ^= 1;
  EXPECT_FALSE(Reader.lookup(Other).has_value());
}

namespace {

/// N distinct cache keys (distinct input fingerprints, shared options).
CacheKey numberedKey(uint64_t N) {
  CacheKey Key = makeCacheKey(parseSexp("(Union Unit Sphere)").Value, 7,
                              SynthesisOptions());
  Key.InputHash = N;
  return Key;
}

std::vector<RankedTerm> oneProgram() {
  return {{parseSexp("Unit").Value, 1.0}};
}

} // namespace

TEST(ResultCacheTest, MemoryLruCapEvictsLeastRecentlyUsed) {
  ResultCache C("", ResultCache::Limits{/*MaxMemEntries=*/2, 0, 0.0});
  C.store(numberedKey(1), oneProgram());
  C.store(numberedKey(2), oneProgram());
  ASSERT_TRUE(C.lookup(numberedKey(1)).has_value()); // 1 becomes MRU
  C.store(numberedKey(3), oneProgram());             // evicts 2, not 1
  EXPECT_EQ(C.stats().MemEvictions, 1u);
  EXPECT_TRUE(C.lookup(numberedKey(1)).has_value());
  EXPECT_FALSE(C.lookup(numberedKey(2)).has_value());
  EXPECT_TRUE(C.lookup(numberedKey(3)).has_value());

  // Re-storing a resident key refreshes it in place: no eviction.
  C.store(numberedKey(3), oneProgram());
  EXPECT_EQ(C.stats().MemEvictions, 1u);
}

TEST(ResultCacheTest, DiskSweepTrimsOldestTowardsByteBudget) {
  const std::string Dir = tempDir("srcache_sweep_bytes");
  // Budget of one entry's worth: each file is ~90 bytes, so 128 bytes
  // forces every sweep to keep only the newest file.
  ResultCache C(Dir, ResultCache::Limits{0, /*MaxDiskBytes=*/128, 0.0});
  namespace fs = std::filesystem;
  const auto Now = fs::file_time_type::clock::now();
  for (uint64_t I = 1; I <= 3; ++I) {
    C.store(numberedKey(I), oneProgram());
    // Sub-second mtime granularity is not guaranteed everywhere; stamp
    // strictly increasing ages so "oldest-first" is well defined.
    fs::last_write_time(Dir + "/" + numberedKey(I).hex() + ".srres",
                        Now - std::chrono::seconds(10 - I));
  }
  // Files the cache did not write, older than every entry: a leftover
  // snapshot file from an older version and a user's note. Counting them
  // would push the budget past the newest entry; they must stay put.
  const std::string Foreign[] = {Dir + "/" + numberedKey(4).hex() + ".srsnap",
                                 Dir + "/notes.txt"};
  for (const std::string &F : Foreign) {
    std::ofstream(F) << std::string(400, 'f');
    fs::last_write_time(F, Now - std::chrono::seconds(60));
  }
  C.sweepDisk();
  EXPECT_GE(C.stats().DiskEvictions, 2u);
  EXPECT_FALSE(fs::exists(Dir + "/" + numberedKey(1).hex() + ".srres"));
  EXPECT_FALSE(fs::exists(Dir + "/" + numberedKey(2).hex() + ".srres"));
  EXPECT_TRUE(fs::exists(Dir + "/" + numberedKey(3).hex() + ".srres"));
  for (const std::string &F : Foreign)
    EXPECT_TRUE(fs::exists(F)) << F;

  // The memory tier is unaffected: evicted disk entries still hit.
  EXPECT_TRUE(C.lookup(numberedKey(1)).has_value());
  // ...but a fresh instance (cold memory) now misses them.
  ResultCache Reader(Dir);
  EXPECT_FALSE(Reader.lookup(numberedKey(1)).has_value());
  EXPECT_TRUE(Reader.lookup(numberedKey(3)).has_value());
}

TEST(ResultCacheTest, DiskSweepExpiresByAgeAndReapsTmpOrphans) {
  const std::string Dir = tempDir("srcache_sweep_age");
  ResultCache C(Dir, ResultCache::Limits{0, 0, /*MaxAgeSec=*/3600.0});
  namespace fs = std::filesystem;
  C.store(numberedKey(1), oneProgram());
  C.store(numberedKey(2), oneProgram());
  const std::string Old = Dir + "/" + numberedKey(1).hex() + ".srres";
  fs::last_write_time(Old,
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(7200));
  // An orphaned tmp from a crashed writer, past the age limit — reaped;
  // a fresh tmp (a writer mid-store) must survive the sweep.
  const std::string OldTmp = Dir + "/x.srres.tmp.1.2";
  const std::string FreshTmp = Dir + "/y.srres.tmp.3.4";
  std::ofstream(OldTmp) << "partial";
  std::ofstream(FreshTmp) << "partial";
  fs::last_write_time(OldTmp,
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(7200));
  // Files the cache did not write survive however old they are: a
  // leftover snapshot file from an older version and a user's note.
  const std::string Foreign[] = {Dir + "/" + numberedKey(3).hex() + ".srsnap",
                                 Dir + "/notes.txt"};
  for (const std::string &F : Foreign) {
    std::ofstream(F) << "foreign";
    fs::last_write_time(F, fs::file_time_type::clock::now() -
                               std::chrono::seconds(7200));
  }
  C.sweepDisk();
  EXPECT_EQ(C.stats().DiskEvictions, 1u); // tmp reaps are not entry evictions
  EXPECT_FALSE(fs::exists(Old));
  EXPECT_FALSE(fs::exists(OldTmp));
  EXPECT_TRUE(fs::exists(FreshTmp));
  EXPECT_TRUE(
      fs::exists(Dir + "/" + numberedKey(2).hex() + ".srres"));
  for (const std::string &F : Foreign)
    EXPECT_TRUE(fs::exists(F)) << F;
}

//===----------------------------------------------------------------------===//
// Query APIs: tryWait / waitFor / poll / trySubmit / drain / stats
//===----------------------------------------------------------------------===//

TEST(ServiceQueryTest, TryWaitUnknownIdReportsInsteadOfAborting) {
  SynthesisService Service;
  WaitResult R = Service.tryWait(424242);
  EXPECT_EQ(R.St, WaitResult::Status::Unknown);
  EXPECT_EQ(R.Outcome, nullptr);
  EXPECT_EQ(Service.poll(424242), JobPhase::Unknown);
  EXPECT_EQ(Service.waitFor(424242, 0.0).St, WaitResult::Status::Unknown);
}

TEST(ServiceQueryTest, WaitIsStillLoudOnCallerBugs) {
  // The blocking wait() keeps its abort contract for embedders — only
  // the query APIs are tolerant. (Documented, not death-tested: a death
  // test would fork the worker pool.)
  SynthesisService Service;
  JobSpec Spec;
  Spec.Name = "known";
  Spec.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  SynthesisService::JobId Id = Service.submit(std::move(Spec));
  WaitResult R = Service.tryWait(Id);
  ASSERT_EQ(R.St, WaitResult::Status::Done);
  ASSERT_NE(R.Outcome, nullptr);
  EXPECT_EQ(R.Outcome->St, JobOutcome::Status::Succeeded);
  // tryWait and wait return the same outcome object.
  EXPECT_EQ(R.Outcome, &Service.wait(Id));
}

TEST(ServiceQueryTest, WaitForTimesOutOnBusyJobThenCompletes) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);

  JobSpec Slow;
  Slow.Name = "slow";
  Slow.Input = slowInput();
  SynthesisService::JobId Id = Service.submit(std::move(Slow));

  // A zero-timeout poll-style wait and a short one both time out while
  // the job runs (spurious wakeups must not return early: waitFor
  // re-checks completion under the lock before reporting).
  EXPECT_EQ(Service.waitFor(Id, 0.0).St, WaitResult::Status::Timeout);
  WaitResult Short = Service.waitFor(Id, 0.01);
  EXPECT_EQ(Short.St, WaitResult::Status::Timeout);
  EXPECT_EQ(Short.Outcome, nullptr);
  JobPhase Phase = Service.poll(Id);
  EXPECT_TRUE(Phase == JobPhase::Pending || Phase == JobPhase::Running);

  // A generous timeout observes completion, and the completion-vs-
  // deadline race resolves to Done (the predicate re-runs at expiry).
  WaitResult Full = Service.waitFor(Id, 600.0);
  ASSERT_EQ(Full.St, WaitResult::Status::Done);
  ASSERT_NE(Full.Outcome, nullptr);
  EXPECT_EQ(Full.Outcome->St, JobOutcome::Status::Succeeded);
  EXPECT_EQ(Service.poll(Id), JobPhase::Done);

  // After completion every further timed wait is an immediate Done, even
  // with a zero timeout.
  EXPECT_EQ(Service.waitFor(Id, 0.0).St, WaitResult::Status::Done);
}

TEST(ServiceQueryTest, WaitForRacingCompletionNeverMisreportsTimeout) {
  // Hammer the completion-vs-timeout race: many tiny jobs, each awaited
  // with a timeout in the same order of magnitude as the job itself.
  // Whichever way each race lands, a Done report must carry the outcome
  // and a Timeout report must be followed by an eventually-Done wait.
  ServiceConfig Cfg;
  Cfg.NumWorkers = 2;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);
  for (int I = 0; I < 20; ++I) {
    JobSpec Spec;
    Spec.Name = "race-" + std::to_string(I);
    Spec.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
    SynthesisService::JobId Id = Service.submit(std::move(Spec));
    WaitResult R = Service.waitFor(Id, 0.002);
    if (R.St == WaitResult::Status::Done) {
      ASSERT_NE(R.Outcome, nullptr);
      EXPECT_EQ(R.Outcome->St, JobOutcome::Status::Succeeded);
    } else {
      ASSERT_EQ(R.St, WaitResult::Status::Timeout);
      WaitResult Final = Service.waitFor(Id, 600.0);
      ASSERT_EQ(Final.St, WaitResult::Status::Done);
      EXPECT_EQ(Final.Outcome->St, JobOutcome::Status::Succeeded);
    }
  }
}

TEST(ServiceQueryTest, TrySubmitEnforcesTheQueueBound) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = false;
  Cfg.MaxQueueDepth = 1;
  SynthesisService Service(Cfg);

  JobSpec Slow;
  Slow.Name = "head";
  Slow.Input = slowInput();
  std::optional<SynthesisService::JobId> Head =
      Service.trySubmit(std::move(Slow));
  ASSERT_TRUE(Head.has_value());

  // Fill the queue (racing the worker pickup: retry until one sticks),
  // then the next trySubmit must bounce.
  JobSpec Fill;
  Fill.Name = "fill";
  Fill.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  bool SawReject = false;
  std::vector<SynthesisService::JobId> Accepted{*Head};
  for (int I = 0; I < 200 && !SawReject; ++I) {
    std::optional<SynthesisService::JobId> Id = Service.trySubmit(Fill);
    if (Id)
      Accepted.push_back(*Id);
    else
      SawReject = true;
  }
  EXPECT_TRUE(SawReject);
  EXPECT_GE(Service.stats().Rejected, 1u);

  // submit() deliberately ignores the bound (in-process callers own
  // their backlog).
  JobSpec Extra;
  Extra.Name = "unbounded";
  Extra.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  SynthesisService::JobId Unbounded = Service.submit(std::move(Extra));
  Accepted.push_back(Unbounded);

  Service.cancel(*Head);
  for (SynthesisService::JobId Id : Accepted)
    EXPECT_EQ(Service.tryWait(Id).St, WaitResult::Status::Done);
}

TEST(ServiceQueryTest, DrainStopsTrySubmitKeepsSubmitAndReachesIdle) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 2;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);

  JobSpec Spec;
  Spec.Name = "inflight";
  Spec.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  SynthesisService::JobId Id = Service.submit(Spec);

  Service.beginDrain();
  EXPECT_FALSE(Service.trySubmit(Spec).has_value());
  EXPECT_TRUE(Service.stats().Draining);
  // submit() still honors the in-process contract during drain.
  SynthesisService::JobId Late = Service.submit(Spec);

  EXPECT_TRUE(Service.awaitIdle(600.0));
  EXPECT_EQ(Service.poll(Id), JobPhase::Done);
  EXPECT_EQ(Service.poll(Late), JobPhase::Done);
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.QueueDepth, 0u);
  EXPECT_EQ(Stats.Running, 0u);
}

TEST(ServiceQueryTest, AwaitIdleTimesOutWhileWorkRemains) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = false;
  SynthesisService Service(Cfg);
  JobSpec Slow;
  Slow.Name = "busy";
  Slow.Input = slowInput();
  SynthesisService::JobId Id = Service.submit(std::move(Slow));
  EXPECT_FALSE(Service.awaitIdle(0.01));
  Service.cancel(Id);
  EXPECT_TRUE(Service.awaitIdle(600.0));
}

TEST(ServiceQueryTest, StatsCountEveryOutcomeClass) {
  ServiceConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.EnableCache = true;
  SynthesisService Service(Cfg);

  JobSpec Ok;
  Ok.Name = "ok";
  Ok.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  Service.wait(Service.submit(Ok));
  Service.wait(Service.submit(Ok)); // identical: cache hit
  JobSpec Bad;
  Bad.Name = "bad";
  Bad.Source = "(Union Unit"; // parse failure
  Service.wait(Service.submit(std::move(Bad)));

  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 3u);
  EXPECT_EQ(Stats.Completed, 3u);
  EXPECT_EQ(Stats.Succeeded, 1u);
  EXPECT_EQ(Stats.CacheHits, 1u);
  EXPECT_EQ(Stats.Failed, 1u);
  EXPECT_EQ(Stats.Cancelled, 0u);
  EXPECT_EQ(Stats.Rejected, 0u);
  EXPECT_FALSE(Stats.Draining);
}
