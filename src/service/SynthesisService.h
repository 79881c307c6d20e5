//===-- service/SynthesisService.h - Concurrent job scheduler ---*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesis service: a fixed pool of worker threads draining a FIFO
/// job queue, with per-job deadlines, cooperative cancellation, and the
/// content-addressed result cache in front of the pipeline. This is the
/// layer a batch driver (tools/shrinkray_batch), a throughput harness
/// (bench_throughput), or a future RPC front end submits work to.
///
/// Job lifecycle:
///
///   submit(JobSpec)  ->  Pending (queued)
///                    ->  Running (a worker picked it up; the deadline is
///                        armed from this moment, so queue time never
///                        counts against a job's budget)
///                    ->  Done, with one of four outcomes:
///                          CacheHit   — served from the result cache
///                          Succeeded  — full pipeline run (stored in the
///                                       cache for the next request)
///                          Cancelled  — deadline or cancel() fired; the
///                                       result is partial but well-formed
///                          Failed     — unparseable/invalid input
///
/// Concurrency contract: each job's synthesis is a pure function of its
/// input and options (the engines share no mutable state across jobs, and
/// the symbol and term interners are thread-safe), so N jobs on K workers
/// produce outputs byte-identical to the same jobs run one at a time — the
/// scheduler only changes wall-clock, never results. The scheduler never
/// oversubscribes the machine: at most hardware_concurrency jobs run at
/// once (extra workers idle), and each admitted job that has not pinned
/// its own RunnerLimits::NumThreads gets a thread budget of
/// max(1, hardware threads / jobs currently running).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SERVICE_SYNTHESISSERVICE_H
#define SHRINKRAY_SERVICE_SYNTHESISSERVICE_H

#include "service/ResultCache.h"
#include "support/Cancel.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

namespace shrinkray {
namespace service {

/// Service-wide configuration.
struct ServiceConfig {
  /// Worker threads. 0 = one per hardware thread.
  size_t NumWorkers = 4;
  /// Result-cache directory; empty = in-memory cache only.
  std::string CacheDir;
  /// Master switch for the result cache (lookups and stores).
  bool EnableCache = true;
  /// Result-cache retention budgets (ResultCache::Limits); all zero by
  /// default, i.e. unbounded, matching the pre-budget behavior.
  ResultCache::Limits CacheLimits;
  /// Override for each job's RunnerLimits::NumThreads. The default of 0
  /// budgets automatically: a job that pinned its own NumThreads keeps
  /// it, and every other job gets max(1, hardware threads / jobs
  /// currently running) when a worker picks it up. Any nonzero value
  /// forces that thread count on every job. Results are bit-identical at
  /// any setting, so this is purely a scheduling choice.
  size_t JobNumThreads = 0;
  /// Admission bound on the FIFO queue, enforced by trySubmit() only:
  /// once this many jobs are queued (not yet picked up by a worker),
  /// trySubmit rejects instead of growing the queue. 0 = unbounded.
  /// submit() deliberately ignores the bound — in-process batch callers
  /// own their own backlog; the bound exists for network front ends that
  /// must push backpressure to clients instead of buffering the internet.
  size_t MaxQueueDepth = 0;
};

/// One synthesis request.
struct JobSpec {
  std::string Name;        ///< label for logs/results (e.g. file name)
  /// The input, one of:
  ///  * Input     — an in-memory flat-CSG term (takes precedence), or
  ///  * Source    — program text: OpenSCAD when SourceIsScad, else a
  ///                LambdaCAD s-expression (flattened first when it
  ///                contains loops).
  TermPtr Input;
  std::string Source;
  bool SourceIsScad = false;
  SynthesisOptions Options;
  /// Wall-clock budget measured from the moment a worker starts the job;
  /// 0 = no deadline. Enforced cooperatively (see support/Cancel.h).
  double DeadlineSec = 0.0;
};

/// Terminal state of a job.
struct JobOutcome {
  enum class Status { CacheHit, Succeeded, Cancelled, Failed };
  Status St = Status::Failed;
  /// Synthesis output. On CacheHit only Programs is populated; on
  /// Cancelled it holds the partial result; on Failed it is empty.
  SynthesisResult Result;
  std::string Error;       ///< diagnostic when Failed
  double QueueSec = 0.0;   ///< submit -> worker pickup
  double RunSec = 0.0;     ///< worker pickup -> done

  bool ok() const { return St != Status::Failed; }
};

/// Non-blocking view of where a job is in its lifecycle. Unknown is an
/// error value — the id was never issued by this service (or the caller
/// corrupted it); unlike wait(), the query APIs report it instead of
/// aborting, because a network front end forwards ids from untrusted
/// peers.
enum class JobPhase { Unknown, Pending, Running, Done };

/// Result of a non-aborting wait (tryWait/waitFor).
struct WaitResult {
  enum class Status { Done, Timeout, Unknown };
  Status St = Status::Unknown;
  /// Set only when St == Done; the reference stays valid for the
  /// service's lifetime, like wait()'s return.
  const JobOutcome *Outcome = nullptr;
};

/// Service-wide counters (a consistent snapshot under the service lock).
struct ServiceStats {
  size_t Submitted = 0;   ///< jobs accepted (submit + successful trySubmit)
  size_t Rejected = 0;    ///< trySubmit refusals (queue full or draining)
  size_t Completed = 0;   ///< jobs that reached Done, any outcome
  size_t CacheHits = 0;
  size_t Succeeded = 0;
  size_t Cancelled = 0;
  size_t Failed = 0;
  size_t QueueDepth = 0;  ///< queued, not yet picked up
  size_t Running = 0;     ///< currently executing on a worker
  bool Draining = false;
};

/// Fixed-pool synthesis job scheduler. All public methods are
/// thread-safe; JobIds are process-local and never reused.
class SynthesisService {
public:
  using JobId = uint64_t;

  explicit SynthesisService(ServiceConfig Cfg = {});

  /// Requests cancellation of the running jobs, completes still-queued
  /// jobs as Cancelled (so a concurrent wait() on any job returns rather
  /// than sleeping through teardown), then joins the workers. Outcomes
  /// of unwaited jobs are discarded with the service; waiters must
  /// return before the service is destroyed, as the outcomes they
  /// reference live in it.
  ~SynthesisService();

  SynthesisService(const SynthesisService &) = delete;
  SynthesisService &operator=(const SynthesisService &) = delete;

  /// Enqueues a job; returns immediately.
  JobId submit(JobSpec Spec);

  /// Admission-controlled submit: rejects (returns nullopt) instead of
  /// enqueueing when the service is draining or the queue already holds
  /// Cfg.MaxQueueDepth jobs. This is the entry point for callers that
  /// must bound their backlog — the RPC server turns a nullopt into an
  /// explicit `rejected: queue_full` response.
  std::optional<JobId> trySubmit(JobSpec Spec);

  /// Blocks until \p Id is done; the reference stays valid for the
  /// service's lifetime. Calling this with an id the service never
  /// issued is a caller bug and aborts loudly — embedders handling
  /// untrusted ids use tryWait/waitFor instead.
  const JobOutcome &wait(JobId Id);

  /// Non-aborting wait(): blocks until \p Id is done, or returns
  /// WaitResult{Unknown} immediately for an id this service never
  /// issued. Never aborts.
  WaitResult tryWait(JobId Id);

  /// Timed tryWait: additionally returns WaitResult{Timeout} when the
  /// job is still Pending/Running after \p Seconds (>= 0; 0 polls). The
  /// completion check re-runs after every wakeup, so a completion racing
  /// the deadline reports Done, and spurious wakeups never return early.
  WaitResult waitFor(JobId Id, double Seconds);

  /// Non-blocking phase query; JobPhase::Unknown for foreign ids.
  JobPhase poll(JobId Id) const;

  /// Stops admission: every later trySubmit is rejected (submit still
  /// works — in-process callers draining their own backlog keep their
  /// contract). Queued and running jobs are unaffected; pair with
  /// awaitIdle() to let them finish, or cancel them for a fast drain.
  void beginDrain();

  /// Blocks until no job is queued or running, or \p TimeoutSec passed;
  /// returns true when idle. With admission stopped (beginDrain), idle
  /// is terminal — this is the server's graceful-shutdown barrier.
  bool awaitIdle(double TimeoutSec);

  /// Consistent snapshot of the service counters.
  ServiceStats stats() const;

  /// Requests cooperative cancellation of \p Id. A still-queued job
  /// completes immediately as Cancelled without running; a running job
  /// winds down at its next cancellation check with a partial result.
  /// Returns false for unknown or already-finished jobs.
  bool cancel(JobId Id);

  size_t numWorkers() const { return Workers.size(); }

  ResultCache &cache() { return Cache; }

private:
  enum class JobState { Pending, Running, Done };

  struct Job {
    JobSpec Spec;
    CancelToken Token = CancelToken::make();
    JobState State = JobState::Pending;
    JobOutcome Outcome;
    std::chrono::steady_clock::time_point Submitted;
  };

  ServiceConfig Cfg;
  ResultCache Cache;
  uint64_t RulesFp; ///< pipeline rule-database fingerprint, computed once

  mutable std::mutex M;
  std::condition_variable WorkCV; ///< workers: queue non-empty or stopping
  std::condition_variable DoneCV; ///< waiters: some job finished
  std::deque<JobId> Queue;
  std::unordered_map<JobId, std::unique_ptr<Job>> Jobs;
  JobId NextId = 1;
  bool Stopping = false;
  bool Draining = false;      ///< beginDrain(): trySubmit rejects
  size_t HardwareThreads = 1; ///< hardware_concurrency, floored at 1
  size_t RunningJobs = 0;     ///< jobs a worker is executing right now
  ServiceStats Counters;      ///< cumulative totals (queue/run fields unused)
  std::vector<std::thread> Workers;

  JobId enqueueLocked(JobSpec Spec);
  /// Counter bookkeeping for a job entering Done; call with M held,
  /// after Outcome.St is final and before notifying DoneCV.
  void noteDoneLocked(const JobOutcome &Out);
  void workerLoop();
  /// Runs \p J outside the lock; fills J.Outcome. \p ThreadBudget is the
  /// admission-time value of max(1, hardware threads / running jobs),
  /// applied unless the job pinned NumThreads (or Cfg forces a count).
  void runJob(Job &J, size_t ThreadBudget);
};

} // namespace service
} // namespace shrinkray

#endif // SHRINKRAY_SERVICE_SYNTHESISSERVICE_H
