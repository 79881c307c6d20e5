//===-- bench/bench_throughput.cpp - Service-layer throughput -------------===//
//
// Measures the synthesis service end to end on the 16-model bench corpus,
// three ways:
//
//   sequential  — one worker, cache off: the per-model baseline and the
//                 reference outputs;
//   concurrent  — four workers, cold cache: scheduler throughput; the
//                 outputs are verified byte-identical to the sequential
//                 pass (the service's determinism contract);
//   warm        — the same jobs resubmitted against the now-populated
//                 cache: every row should be a cache hit served in
//                 microseconds.
//
// Emits BENCH_throughput.json with one row per (model, kind) — jobs/sec
// per pass, the cache-hit count, and the outputs-identical verdict in the
// metrics (docs/BENCHMARKS.md documents the schema; CI gates the
// sequential/concurrent rows' time_sec like every other bench).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/Models.h"
#include "service/SynthesisService.h"

#include <numeric>

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::service;

namespace {

struct PassResult {
  std::vector<std::string> Transcripts; ///< per model, submission order
  std::vector<double> RunSec;           ///< per model
  std::vector<bool> CacheHit;           ///< per model
  double WallSec = 0.0;
  size_t Hits = 0;
};

std::string transcript(const JobOutcome &Out) {
  std::string S;
  for (const RankedTerm &P : Out.Result.Programs)
    S += printSexp(P.T) + "\n";
  return S;
}

/// Submits the whole corpus to \p Service and waits for every job.
PassResult runPass(SynthesisService &Service,
                   const std::vector<models::BenchmarkModel> &Corpus) {
  PassResult R;
  WallTimer Timer;
  std::vector<SynthesisService::JobId> Ids;
  Ids.reserve(Corpus.size());
  for (const models::BenchmarkModel &M : Corpus) {
    JobSpec Spec;
    Spec.Name = M.Name;
    Spec.Input = M.FlatCsg;
    Ids.push_back(Service.submit(std::move(Spec)));
  }
  for (SynthesisService::JobId Id : Ids) {
    const JobOutcome &Out = Service.wait(Id);
    if (!Out.ok())
      std::fprintf(stderr, "[bench] job failed: %s\n", Out.Error.c_str());
    bool Hit = Out.St == JobOutcome::Status::CacheHit;
    R.Transcripts.push_back(transcript(Out));
    R.RunSec.push_back(Out.RunSec);
    R.CacheHit.push_back(Hit);
    R.Hits += Hit ? 1 : 0;
  }
  R.WallSec = Timer.seconds();
  return R;
}

void addRows(JsonReport &Report,
             const std::vector<models::BenchmarkModel> &Corpus,
             const char *Kind, const PassResult &R) {
  for (size_t I = 0; I < Corpus.size(); ++I)
    Report.row()
        .add("model", Corpus[I].Name)
        .add("kind", Kind)
        .add("time_sec", R.RunSec[I])
        .add("cache_hit", static_cast<bool>(R.CacheHit[I]));
}

double jobsPerSec(const PassResult &R) {
  return R.WallSec > 0 ? static_cast<double>(R.Transcripts.size()) / R.WallSec
                       : 0.0;
}

} // namespace

int main() {
  JsonReport Report("throughput");
  const std::vector<models::BenchmarkModel> Corpus = models::allModels();
  std::printf("== Service throughput: %zu models, sequential vs 4 workers "
              "vs warm cache ==\n\n",
              Corpus.size());

  // --- Pass 1: sequential reference (1 worker, no cache) ----------------
  PassResult Seq;
  {
    ServiceConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.EnableCache = false;
    SynthesisService Service(Cfg);
    Seq = runPass(Service, Corpus);
  }
  std::printf("sequential : %6.2f s wall, %5.2f jobs/s\n", Seq.WallSec,
              jobsPerSec(Seq));

  // --- Pass 2 + 3: concurrent cold, then warm, one shared cache ---------
  PassResult Conc, Warm;
  {
    ServiceConfig Cfg;
    Cfg.NumWorkers = 4;
    Cfg.EnableCache = true;
    SynthesisService Service(Cfg);
    Conc = runPass(Service, Corpus);
    Warm = runPass(Service, Corpus);
  }
  std::printf("concurrent : %6.2f s wall, %5.2f jobs/s (4 workers)\n",
              Conc.WallSec, jobsPerSec(Conc));
  std::printf("warm cache : %6.2f s wall, %5.2f jobs/s, %zu/%zu hits\n",
              Warm.WallSec, jobsPerSec(Warm), Warm.Hits, Corpus.size());

  // --- Determinism verdict ----------------------------------------------
  size_t Identical = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    bool Same = Seq.Transcripts[I] == Conc.Transcripts[I] &&
                Conc.Transcripts[I] == Warm.Transcripts[I];
    Identical += Same ? 1 : 0;
    if (!Same)
      std::printf("OUTPUT MISMATCH: %s\n", Corpus[I].Name.c_str());
  }
  bool OutputsIdentical = Identical == Corpus.size();
  std::printf("outputs    : %zu/%zu identical across passes -> %s\n",
              Identical, Corpus.size(), OutputsIdentical ? "OK" : "MISMATCH");

  const double Speedup = Conc.WallSec > 0 ? Seq.WallSec / Conc.WallSec : 0.0;
  addRows(Report, Corpus, "sequential", Seq);
  addRows(Report, Corpus, "concurrent", Conc);
  addRows(Report, Corpus, "warm", Warm);
  Report.top()
      .add("models", Corpus.size())
      .add("outputs_identical", OutputsIdentical)
      .add("cache_hits", Warm.Hits)
      .add("seq_wall_sec", Seq.WallSec)
      .add("conc_wall_sec", Conc.WallSec)
      .add("warm_wall_sec", Warm.WallSec)
      .add("seq_jobs_per_sec", jobsPerSec(Seq))
      .add("conc_jobs_per_sec", jobsPerSec(Conc))
      .add("warm_jobs_per_sec", jobsPerSec(Warm))
      .add("concurrent_speedup", Speedup);

  // The harness itself is a gate: a mismatch or a cold warm-cache run is
  // a service-layer bug even when every job "succeeded".
  bool WarmOk = Warm.Hits + 1 >= Corpus.size(); // >= 15/16
  if (!WarmOk)
    std::fprintf(stderr, "[bench] warm pass hit only %zu/%zu\n", Warm.Hits,
                 Corpus.size());
  // The scheduler must never make the corpus *slower* than one worker:
  // admission control caps running jobs at the core count, so even a
  // 4-worker pool on a smaller machine degrades to sequential speed, not
  // below it (the historical failure mode this gate pins down).
  bool SpeedupOk = Speedup >= 1.0;
  if (!SpeedupOk)
    std::fprintf(stderr, "[bench] concurrent pass slower than sequential: "
                         "speedup %.3f < 1.0\n",
                 Speedup);
  return Report.write() && OutputsIdentical && WarmOk && SpeedupOk ? 0 : 1;
}
