//===-- support/ThreadPool.h - Ticket-drained worker pool -------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed worker pool behind the pipeline's one parallel phase, the
/// Runner's sharded group searches (apply and extraction are serial).
///
/// Determinism contract: run() hands out task indices through one atomic
/// cursor, so whichever thread is free takes the next index — but tasks
/// must write disjoint output slots, and callers must consume the slots in
/// a stable order afterwards. Under that discipline results are
/// bit-identical at every thread count (including 1, where the caller
/// drains every ticket itself).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SUPPORT_THREADPOOL_H
#define SHRINKRAY_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shrinkray {

/// Number of engine threads (including the calling thread) for a
/// configured limit. 0 = auto: small and fixed, capped at 4 — the parallel
/// units (root-op groups) are coarse, and more threads than units only
/// adds wake-up latency.
inline size_t resolveThreads(size_t Configured) {
  if (Configured != 0)
    return Configured;
  unsigned HW = std::thread::hardware_concurrency();
  return std::min<size_t>(4, HW ? HW : 1);
}

/// A fixed pool of N-1 workers plus the calling thread, reused across all
/// invocations. run() publishes one epoch; workers and the caller race on
/// an atomic ticket counter until the task range is drained.
class WorkerPool {
public:
  explicit WorkerPool(size_t NumWorkers) {
    Workers.reserve(NumWorkers);
    for (size_t I = 0; I < NumWorkers; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop = true;
    }
    WorkCV.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  size_t numWorkers() const { return Workers.size(); }

  /// Runs Fn(0..NumTasks-1), caller participating. Returns once all tasks
  /// finished. A worker can linger in the old epoch's drain loop for one
  /// more (losing) ticket probe after that — so publishing the *next*
  /// epoch waits for Draining == 0 before resetting the ticket counter:
  /// a stale worker can then never claim a fresh ticket against its dead
  /// function pointer, and a worker that wakes late adopts an exhausted
  /// counter and exits without invoking anything.
  void run(size_t NumTasks, const std::function<void(size_t)> &Fn) {
    if (NumTasks == 0)
      return;
    if (Workers.empty()) {
      for (size_t I = 0; I < NumTasks; ++I)
        Fn(I);
      return;
    }
    {
      std::unique_lock<std::mutex> L(M);
      DoneCV.wait(L, [&] { return Draining == 0; }); // quiesce stragglers
      Task = &Fn;
      Tasks = NumTasks;
      Next.store(0, std::memory_order_relaxed);
      Done.store(0, std::memory_order_relaxed);
      ++Epoch;
    }
    WorkCV.notify_all();
    drain(&Fn, NumTasks);
    std::unique_lock<std::mutex> L(M);
    DoneCV.wait(L,
                [&] { return Done.load(std::memory_order_acquire) == Tasks; });
  }

private:
  void drain(const std::function<void(size_t)> *Fn, size_t NumTasks) {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= NumTasks)
        return;
      (*Fn)(I); // a claimed ticket implies this epoch is still published
      if (Done.fetch_add(1, std::memory_order_acq_rel) + 1 == NumTasks) {
        std::lock_guard<std::mutex> L(M);
        DoneCV.notify_all();
      }
    }
  }

  void workerLoop() {
    uint64_t Seen = 0;
    for (;;) {
      const std::function<void(size_t)> *Fn;
      size_t NumTasks;
      {
        std::unique_lock<std::mutex> L(M);
        WorkCV.wait(L, [&] { return Stop || Epoch != Seen; });
        if (Stop)
          return;
        Seen = Epoch;
        Fn = Task;
        NumTasks = Tasks;
        ++Draining;
      }
      drain(Fn, NumTasks);
      {
        std::lock_guard<std::mutex> L(M);
        --Draining;
      }
      DoneCV.notify_all();
    }
  }

  std::vector<std::thread> Workers;
  std::mutex M;
  std::condition_variable WorkCV, DoneCV;
  const std::function<void(size_t)> *Task = nullptr;
  size_t Tasks = 0;
  uint64_t Epoch = 0;
  size_t Draining = 0; ///< workers currently inside an epoch's drain()
  bool Stop = false;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
};

} // namespace shrinkray

#endif // SHRINKRAY_SUPPORT_THREADPOOL_H
