//===-- service/SynthesisService.cpp - Concurrent job scheduler -----------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Worker-pool implementation of the synthesis service. One mutex guards
/// the queue and the job table; synthesis itself runs outside the lock,
/// so the lock is only ever held for queue surgery. Cancellation is
/// token-based: cancel() (and the per-job deadline) flips the token the
/// Runner and Synthesizer poll, so no thread is ever interrupted — a
/// cancelled job parks its partial result like any other completion.
///
//===----------------------------------------------------------------------===//

#include "service/SynthesisService.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "rewrites/Rules.h"
#include "scad/ScadParser.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

} // namespace

SynthesisService::SynthesisService(ServiceConfig Cfg)
    : Cfg(Cfg), Cache(Cfg.CacheDir, Cfg.CacheLimits),
      RulesFp(ruleDatabaseFingerprint(pipelineRules())) {
  unsigned HW = std::thread::hardware_concurrency();
  HardwareThreads = HW ? HW : 1;
  size_t N = Cfg.NumWorkers;
  if (N == 0)
    N = HardwareThreads;
  Workers.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

SynthesisService::~SynthesisService() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
    // Ask running jobs to wind down...
    for (auto &[Id, J] : Jobs)
      if (J->State != JobState::Done)
        J->Token.cancel();
    // ...and complete still-queued jobs as Cancelled right here: the
    // workers exit on Stopping without draining the queue, and a thread
    // blocked in wait() on an abandoned Pending job would otherwise
    // sleep through teardown and then race the condvar's destruction.
    for (JobId Id : Queue) {
      Job &J = *Jobs.find(Id)->second;
      if (J.State == JobState::Pending) {
        J.Outcome.St = JobOutcome::Status::Cancelled;
        J.State = JobState::Done;
        noteDoneLocked(J.Outcome);
      }
    }
    Queue.clear();
  }
  WorkCV.notify_all();
  DoneCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

SynthesisService::JobId SynthesisService::enqueueLocked(JobSpec Spec) {
  JobId Id = NextId++;
  auto J = std::make_unique<Job>();
  J->Spec = std::move(Spec);
  J->Submitted = Clock::now();
  Jobs.emplace(Id, std::move(J));
  Queue.push_back(Id);
  ++Counters.Submitted;
  return Id;
}

SynthesisService::JobId SynthesisService::submit(JobSpec Spec) {
  JobId Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    Id = enqueueLocked(std::move(Spec));
  }
  WorkCV.notify_one();
  return Id;
}

std::optional<SynthesisService::JobId>
SynthesisService::trySubmit(JobSpec Spec) {
  JobId Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Draining ||
        (Cfg.MaxQueueDepth != 0 && Queue.size() >= Cfg.MaxQueueDepth)) {
      ++Counters.Rejected;
      return std::nullopt;
    }
    Id = enqueueLocked(std::move(Spec));
  }
  WorkCV.notify_one();
  return Id;
}

void SynthesisService::noteDoneLocked(const JobOutcome &Out) {
  ++Counters.Completed;
  switch (Out.St) {
  case JobOutcome::Status::CacheHit:
    ++Counters.CacheHits;
    break;
  case JobOutcome::Status::Succeeded:
    ++Counters.Succeeded;
    break;
  case JobOutcome::Status::Cancelled:
    ++Counters.Cancelled;
    break;
  case JobOutcome::Status::Failed:
    ++Counters.Failed;
    break;
  }
}

WaitResult SynthesisService::tryWait(JobId Id) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return WaitResult{WaitResult::Status::Unknown, nullptr};
  Job &J = *It->second;
  DoneCV.wait(Lock, [&] { return J.State == JobState::Done; });
  return WaitResult{WaitResult::Status::Done, &J.Outcome};
}

WaitResult SynthesisService::waitFor(JobId Id, double Seconds) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return WaitResult{WaitResult::Status::Unknown, nullptr};
  Job &J = *It->second;
  // wait_for re-evaluates the predicate after every wakeup (spurious or
  // not) and once more at the deadline, so a completion racing the
  // timeout is always reported as Done.
  bool Done = DoneCV.wait_for(Lock, std::chrono::duration<double>(Seconds),
                              [&] { return J.State == JobState::Done; });
  if (!Done)
    return WaitResult{WaitResult::Status::Timeout, nullptr};
  return WaitResult{WaitResult::Status::Done, &J.Outcome};
}

JobPhase SynthesisService::poll(JobId Id) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return JobPhase::Unknown;
  switch (It->second->State) {
  case JobState::Pending:
    return JobPhase::Pending;
  case JobState::Running:
    return JobPhase::Running;
  case JobState::Done:
    break;
  }
  return JobPhase::Done;
}

void SynthesisService::beginDrain() {
  std::lock_guard<std::mutex> Lock(M);
  Draining = true;
}

bool SynthesisService::awaitIdle(double TimeoutSec) {
  std::unique_lock<std::mutex> Lock(M);
  // Every transition that can complete the predicate (a job finishing,
  // including the cancelled-while-queued path) notifies DoneCV, so
  // waiting on it observes idleness without polling.
  return DoneCV.wait_for(Lock, std::chrono::duration<double>(TimeoutSec),
                         [&] { return Queue.empty() && RunningJobs == 0; });
}

ServiceStats SynthesisService::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  ServiceStats S = Counters;
  S.QueueDepth = Queue.size();
  S.Running = RunningJobs;
  S.Draining = Draining;
  return S;
}

const JobOutcome &SynthesisService::wait(JobId Id) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end()) {
    // A stale or foreign id is a caller bug, but this is a public API:
    // fail loudly in every build mode rather than dereferencing end().
    std::fprintf(stderr, "SynthesisService::wait: unknown job id %llu\n",
                 static_cast<unsigned long long>(Id));
    std::abort();
  }
  Job &J = *It->second;
  DoneCV.wait(Lock, [&] { return J.State == JobState::Done; });
  return J.Outcome;
}

bool SynthesisService::cancel(JobId Id) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end() || It->second->State == JobState::Done)
    return false;
  It->second->Token.cancel();
  return true;
}

void SynthesisService::workerLoop() {
  for (;;) {
    Job *J = nullptr;
    size_t ThreadBudget = 1;
    {
      std::unique_lock<std::mutex> Lock(M);
      // Admission control: never run more jobs at once than the machine
      // has hardware threads — a pool sized past the machine would
      // otherwise oversubscribe it and run slower than one worker.
      WorkCV.wait(Lock, [&] {
        return Stopping || (!Queue.empty() && RunningJobs < HardwareThreads);
      });
      if (Stopping)
        return;
      JobId Id = Queue.front();
      Queue.pop_front();
      J = Jobs.find(Id)->second.get();
      J->State = JobState::Running;
      J->Outcome.QueueSec = secondsBetween(J->Submitted, Clock::now());
      if (J->Token.cancelled()) {
        // Cancelled while still queued: complete without running.
        J->Outcome.St = JobOutcome::Status::Cancelled;
        J->State = JobState::Done;
        noteDoneLocked(J->Outcome);
        DoneCV.notify_all();
        continue;
      }
      ++RunningJobs;
      ThreadBudget = std::max<size_t>(1, HardwareThreads / RunningJobs);
    }
    const auto RunStart = Clock::now();
    runJob(*J, ThreadBudget);
    {
      std::lock_guard<std::mutex> Lock(M);
      --RunningJobs;
      J->Outcome.RunSec = secondsBetween(RunStart, Clock::now());
      J->State = JobState::Done;
      noteDoneLocked(J->Outcome);
    }
    WorkCV.notify_one(); // a slot freed up: admit the next queued job
    DoneCV.notify_all();
  }
}

void SynthesisService::runJob(Job &J, size_t ThreadBudget) {
  JobOutcome &Out = J.Outcome;

  // --- Resolve the input to flat CSG ----------------------------------
  TermPtr Flat = J.Spec.Input;
  if (!Flat) {
    if (J.Spec.SourceIsScad) {
      scad::ScadResult R = scad::parseScad(J.Spec.Source);
      if (!R) {
        Out.St = JobOutcome::Status::Failed;
        Out.Error = "scad: " + R.Error;
        return;
      }
      Flat = R.Value;
    } else {
      ParseResult R = parseSexp(J.Spec.Source);
      if (!R) {
        Out.St = JobOutcome::Status::Failed;
        Out.Error = R.Error;
        return;
      }
      if (isFlatCsg(R.Value)) {
        Flat = R.Value;
      } else {
        EvalResult E = evalToFlatCsg(R.Value);
        if (!E) {
          Out.St = JobOutcome::Status::Failed;
          Out.Error = "input does not flatten: " + E.Error;
          return;
        }
        Flat = E.Value;
      }
    }
  }
  if (!isFlatCsg(Flat)) {
    Out.St = JobOutcome::Status::Failed;
    Out.Error = "input is not flat CSG";
    return;
  }

  // --- Options: thread budget, cancellation token ----------------------
  // A forced ServiceConfig count wins; otherwise a job that pinned its
  // own NumThreads keeps it and everything else gets the admission-time
  // budget. NumThreads never changes results, only wall clock.
  SynthesisOptions Opts = J.Spec.Options;
  if (Cfg.JobNumThreads != 0)
    Opts.Limits.NumThreads = Cfg.JobNumThreads;
  else if (Opts.Limits.NumThreads == 0)
    Opts.Limits.NumThreads = ThreadBudget;

  // --- Result cache ----------------------------------------------------
  // The key is computed before the token is attached: cancellation state
  // is per-request, not part of the result's identity.
  CacheKey Key = makeCacheKey(Flat, RulesFp, Opts);
  if (Cfg.EnableCache) {
    if (std::optional<std::vector<RankedTerm>> Hit = Cache.lookup(Key)) {
      Out.St = JobOutcome::Status::CacheHit;
      Out.Result.Programs = std::move(*Hit);
      return;
    }
  }

  // --- Run the pipeline -------------------------------------------------
  if (J.Spec.DeadlineSec > 0.0)
    J.Token.armDeadline(J.Spec.DeadlineSec);
  Opts.Limits.Cancel = J.Token;

  Out.Result = Synthesizer(Opts).synthesize(Flat);
  if (Out.Result.Stats.Cancelled) {
    Out.St = JobOutcome::Status::Cancelled;
    return; // partial results are never cached
  }
  Out.St = JobOutcome::Status::Succeeded;
  // A run truncated by the runner's wall-clock safety valve — in any
  // main-loop round, not just the last one the report retains — is as
  // machine- and load-dependent as a deadline cancellation: caching it
  // would permanently serve this machine's partial result to every
  // process sharing the cache. Iteration/node limits are deterministic
  // in (input, options) and stay cacheable.
  if (Cfg.EnableCache && !Out.Result.Stats.WallClockTruncated)
    Cache.store(Key, Out.Result.Programs);
}
