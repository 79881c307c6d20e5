//===-- perfbench/src/main.cpp - The repository benchmark -----------------===//
//
// Runs one workload for about --seconds and prints its metrics, ending with
// one JSON line {"correct", "attempted", "failed", "metrics"}:
//
//   perfbench --workload table1|gen-cold|served-mix --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced and then traced, reports the per-layer
// metrics from the traced pass, and writes its spans to DIR once at the
// end. Every output is checked outside the timed region; a failed check
// is printed and counts against ok_ratio. perfbench/README.md explains
// the workloads and the metrics.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"
#include "Served.h"
#include "Stats.h"
#include "Trace.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "geom/Sample.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "solvers/Preprocess.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace shrinkray;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-up is timed this many times per run and its median reported.
constexpr int kSetupReps = 9;
/// table1 runs max(2, round(seconds / kTable1PassSec)) passes: the pass
/// count depends on --seconds only, so the sample count, and with it the
/// reported percentiles, is the same on every run. Six passes at 30 s put
/// its capped tail percentile among the gear runs rather than on a single
/// mid-size model's.
constexpr double kTable1PassSec = 5.0;
/// gen-cold corpus size per second of --seconds.
constexpr double kGenJobsPerSec = 100.0;
/// served-mix offered rate, requests per second: about half of what a
/// server on 4 cores sustains (perfbench/README.md).
constexpr double kServedRate = 100.0;
/// served-mix client connections (at most the machine's 4 cores).
constexpr size_t kServedConnections = 4;
/// Repeats and near-misses refer to a request sent at least this long
/// before them: a user's think time. Under served-mix's load the snapshot
/// tier (4 entries by default) has then evicted the original's snapshot.
constexpr double kRefLagSec = 1.0;
/// served-mix first sends this long of other traffic to its server.
constexpr double kWarmUpSec = 2.0;
/// The revisits give table1 (14 models x 8 rounds) and gen-cold (8 models
/// of each family x 4 rounds) 112 and 128 repeats, and as many near-misses.
/// The first round's near-miss is a cost swap and the others are literal
/// edits, so the median near-miss is an edit, whichever kind is faster.
constexpr size_t kTable1RevisitRounds = 8;
constexpr size_t kGenRevisitsPerFamily = 8, kGenRevisitRounds = 4;

constexpr size_t kRefGap = static_cast<size_t>(kServedRate * kRefLagSec);

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : V[(V.size() - 1) / 2];
}

double peakRssMb() {
  struct rusage RU;
  return getrusage(RUSAGE_SELF, &RU) == 0
             ? static_cast<double>(RU.ru_maxrss) / 1024.0
             : 0.0;
}

//===-- Jobs and the correctness gate -------------------------------------===//

/// One job of a workload, in-process or served, as the gate sees it.
struct Job {
  std::string Name;
  ReqClass Class = ReqClass::Cold;
  size_t Ref = 0;          ///< for repeats: index of the original job
  TermPtr Input;           ///< flat input (cold and near-miss jobs)
  double LatencySec = 0.0;
  bool Ran = false;        ///< the program returned a result
  std::string Error;
  std::vector<std::string> Programs; ///< s-expressions, best first
  // Filled in by the gate.
  bool Ok = false;
  uint64_t OutputNodes = 0;
  bool Structure = false;
  size_t Rank = 0; ///< first program exposing a loop, 1-based; 0 if none
};

/// Checks every job outside the timed region: each returned s-expression
/// parses back, each best program evaluates to a flat model that agrees
/// with its input by geom::sampleEquivalent, and each repeat returns its
/// original's programs byte for byte. Prints every job that fails.
void gate(std::vector<Job> &Jobs) {
  geom::SampleOptions Opts;
  Opts.NumPoints = 4000;
  Opts.MismatchTolerance = 0.002; // constants snapped within the solver band
  for (Job &J : Jobs) {
    std::string Why = J.Error;
    if (J.Ran && J.Programs.empty())
      Why = "no programs returned";
    std::vector<TermPtr> Parsed;
    for (const std::string &Text : J.Programs) {
      ParseResult P = parseSexp(Text);
      if (!P) {
        Why = "returned program does not parse: " + P.Error;
        break;
      }
      Parsed.push_back(P.Value);
    }
    if (J.Ran && Why.empty()) {
      if (J.Class == ReqClass::Repeat) {
        const Job &Orig = Jobs[J.Ref];
        if (J.Programs != Orig.Programs)
          Why = "repeat differs from its original " + Orig.Name;
      } else {
        EvalResult Flat = evalToFlatCsg(Parsed.front());
        if (!Flat)
          Why = "best program does not evaluate: " + Flat.Error;
        else if (!geom::sampleEquivalent(J.Input, Flat.Value, Opts))
          Why = "best program is not equivalent to the input";
      }
    }
    J.Ok = J.Ran && Why.empty();
    if (!J.Ok) {
      std::printf("[perfbench] FAILED %s: %s\n", J.Name.c_str(),
                  Why.empty() ? "did not run" : Why.c_str());
      continue;
    }
    J.OutputNodes = termSize(Parsed.front());
    for (size_t I = 0; I < Parsed.size() && J.Rank == 0; ++I)
      if (describeLoops(Parsed[I]).HasLoops)
        J.Rank = I + 1;
    J.Structure = J.Rank != 0;
  }
}

std::vector<std::string> programTexts(const SynthesisResult &R) {
  std::vector<std::string> Out;
  for (const RankedTerm &P : R.Programs)
    Out.push_back(printSexp(P.T));
  return Out;
}

//===-- Metrics -----------------------------------------------------------===//

struct Metric {
  std::string Name, Unit, Note;
  double Value = 0.0;
};

class Report {
public:
  void add(std::string Name, double Value, std::string Unit,
           std::string Note = "") {
    if (!std::isfinite(Value)) {
      Note += " (not finite; reported as 0)";
      Value = 0.0;
    }
    Metrics.push_back({std::move(Name), std::move(Unit), std::move(Note),
                       Value});
  }

  /// A latency percentile in ms by the percentile rule. \p Required
  /// metrics without enough samples make the run fail; others read 0.
  void percentileMs(const std::string &Name, const std::vector<double> &Sec,
                    double P, bool Required) {
    std::optional<Percentile> Pc = tailPercentile(Sec, P);
    if (!Pc) {
      if (Required)
        Missing.push_back(Name + " (" + std::to_string(Sec.size()) +
                          " samples)");
      add(Name, 0.0, "ms", "n=" + std::to_string(Sec.size()) + ", too few");
      return;
    }
    char Note[80];
    std::snprintf(Note, sizeof(Note), "p%.1f of n=%zu%s", 100.0 * Pc->P, Pc->N,
                  Pc->P < P ? ", capped: too few for the asked one" : "");
    add(Name, 1e3 * Pc->Value, "ms", Note);
  }

  const std::vector<std::string> &missing() const { return Missing; }

  void print(bool Correct, size_t Attempted, size_t Failed) const {
    for (const Metric &M : Metrics)
      std::printf("  %-26s %14.6f %-6s %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str(), M.Note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                Correct ? "true" : "false", Attempted, Failed);
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit.c_str());
    std::printf("}}\n");
  }

private:
  std::vector<Metric> Metrics;
  std::vector<std::string> Missing;
};

//===-- One workload run --------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string TraceDir;
};

/// Per-layer sums over one pass of the in-process inputs (table1's first
/// pass), the same inputs the probes run on.
struct LayerSums {
  double SynthSec = 0, RewriteSec = 0, SolveSec = 0, ExtractSec = 0;
  double PreprocessSec = 0, PruneSec = 0, FitSec = 0;
  double FoldSites = 0, Inferred = 0;
  double ParseSec = 0, ParseBytes = 0;

  void add(const SynthesisStats &S, double Sec) {
    SynthSec += Sec;
    RewriteSec += S.RewriteSeconds;
    SolveSec += S.SolveSeconds;
    ExtractSec += S.ExtractSeconds;
    PreprocessSec += S.SolvePreprocessSeconds;
    PruneSec += S.SolvePruneSeconds;
    FitSec += S.SolveFitSeconds;
    FoldSites += static_cast<double>(S.FoldSites);
    Inferred += static_cast<double>(S.Records.size());
  }
};

/// Everything one pass of a workload produced.
struct Pass {
  std::vector<Job> Main;     ///< the workload's own jobs
  double MainWallSec = 0.0;
  double PeakRssMb = 0.0;    ///< peak of the process that ran the jobs
  size_t FirstPassJobs = 0;  ///< jobs of the first pass over the inputs
  std::vector<ServedRequest> ServedRequests; ///< what Served answered
  std::vector<ServedOutcome> Served;          ///< served-mix or revisit
  std::optional<ServerCounters> Counters;
  LayerSums Layers;
  /// Interner counters over the pass: makeTerm hits and misses, and the
  /// terms live at its end.
  uint64_t InternHits = 0, InternUnique = 0, InternLive = 0;
  std::string Error;
};

/// Turns served outcomes into jobs for the gate.
std::vector<Job> servedJobs(const std::vector<ServedRequest> &Requests,
                            const std::vector<ServedOutcome> &Outcomes) {
  std::vector<Job> Jobs(Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    const ServedRequest &Q = Requests[I];
    const ServedOutcome &O = Outcomes[I];
    Job &J = Jobs[I];
    J.Name = Q.Name;
    J.Class = Q.Class;
    J.Ref = Q.Ref;
    if (Q.Class != ReqClass::Repeat)
      J.Input = parseSexp(Q.Source).Value;
    J.LatencySec = O.LatencySec;
    J.Ran = O.Status == "ok" || O.Status == "cache-hit";
    J.Error = J.Ran ? "" : O.Status + (O.Error.empty() ? "" : ": " + O.Error);
    J.Programs = O.Programs;
  }
  return Jobs;
}

/// Runs \p Synth on one in-process job and records it; adds its layer
/// times to \p Layers when given.
Job runInProcess(const std::string &Name, const TermPtr &Flat,
                 const Synthesizer &Synth, uint64_t Id, Tracer &T,
                 LayerSums *Layers, const std::string *Source) {
  Job J;
  J.Name = Name;
  J.Input = Flat;
  const Clock::time_point Start = Clock::now();
  ScopedSpan Root(T, "job", Id);
  TermPtr Input = Flat;
  if (Source) {
    ScopedSpan S(T, "parse", Id, Root.id());
    const Clock::time_point ParseStart = Clock::now();
    ParseResult P = parseSexp(*Source);
    Input = P.Value;
    if (Layers) {
      Layers->ParseSec += since(ParseStart);
      Layers->ParseBytes += static_cast<double>(Source->size());
    }
    if (!P) {
      J.Error = "input does not parse: " + P.Error;
      return J;
    }
  }
  SynthesisResult R;
  const Clock::time_point SynthStart = Clock::now();
  {
    ScopedSpan S(T, "synth", Id, Root.id());
    R = Synth.synthesize(Input);
  }
  const double SynthSec = since(SynthStart);
  J.Programs = programTexts(R);
  J.LatencySec = since(Start);
  J.Ran = !R.Stats.Cancelled;
  if (Layers)
    Layers->add(R.Stats, SynthSec);
  return J;
}

/// The table1 models revisited over the server: all but the two whose cold
/// runs dominate the pass (nintendo-slot and gear), which would double the
/// revisit's length.
std::vector<std::pair<std::string, TermPtr>>
table1Revisits(const std::vector<models::BenchmarkModel> &Models) {
  std::vector<std::pair<std::string, TermPtr>> Out;
  for (const models::BenchmarkModel &M : Models)
    if (M.Name.find("nintendo-slot") == std::string::npos &&
        M.Name.find(":gear") == std::string::npos)
      Out.emplace_back(M.Name, M.FlatCsg);
  return Out;
}

size_t table1Passes(double Seconds) {
  return std::max<size_t>(2, static_cast<size_t>(std::lround(
                                 Seconds / kTable1PassSec)));
}

/// A workload's inputs and the server its requests go to.
struct Inputs {
  std::vector<models::BenchmarkModel> Table1;
  std::vector<GenModel> Corpus;
  std::vector<ServedRequest> Requests; ///< served-mix, or the revisit
  std::unique_ptr<ServedHarness> Harness;
};

/// Set-up, the work setup_s measures: builds the workload's inputs,
/// starts a server and connects its clients.
void setUp(const Args &A, Inputs &In) {
  std::vector<std::pair<std::string, TermPtr>> Revisits;
  size_t Rounds = kGenRevisitRounds;
  if (A.Workload == "table1") {
    In.Table1 = models::allModels();
    Revisits = table1Revisits(In.Table1);
    Rounds = kTable1RevisitRounds;
  } else if (A.Workload == "gen-cold") {
    In.Corpus = generateCorpus(
        A.Seed, static_cast<size_t>(std::lround(kGenJobsPerSec * A.Seconds)));
    // Per family, the models at evenly spaced ranks of source size, so every
    // seed revisits about the same amount of work.
    std::vector<const GenModel *> ByFamily[4];
    for (const GenModel &M : In.Corpus)
      ByFamily[static_cast<size_t>(M.Fam)].push_back(&M);
    for (std::vector<const GenModel *> &Family : ByFamily) {
      std::stable_sort(Family.begin(), Family.end(),
                       [](const GenModel *X, const GenModel *Y) {
                         return X->Source.size() < Y->Source.size();
                       });
      for (size_t K = 0; K < kGenRevisitsPerFamily && !Family.empty(); ++K) {
        const GenModel &M =
            *Family[(2 * K + 1) * Family.size() / (2 * kGenRevisitsPerFamily)];
        Revisits.emplace_back(M.Name, M.Flat);
      }
    }
  }
  if (A.Workload == "served-mix") {
    size_t Count = static_cast<size_t>(std::lround(kServedRate * A.Seconds));
    In.Requests = generateServedMix(A.Seed, Count, kServedRate, kRefGap);
    In.Harness = std::make_unique<ServedHarness>(kServedConnections);
  } else {
    In.Requests = revisitRequests(Revisits, Rounds, A.Seed);
    In.Harness = std::make_unique<ServedHarness>(1);
  }
}

/// Times one set-up in a child process forked from this one before it has
/// built any term, so that every set-up starts from an empty term interner,
/// as in a fresh process. Set-ups run one after another in one process do
/// not: each finds the interner's tables holding the tombstones of the
/// terms the previous one freed, so its time depends on how many came
/// before. Returns the seconds the set-up took, or a negative value when it
/// failed.
double timeSetUpInChild(const Args &A) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return -1.0;
  std::fflush(stdout);
  const pid_t Child = ::fork();
  if (Child < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return -1.0;
  }
  if (Child == 0) {
    ::close(Fds[0]);
    Inputs In;
    const Clock::time_point Start = Clock::now();
    setUp(A, In);
    const double Sec = since(Start);
    const bool Up = In.Harness->error().empty();
    In = Inputs{}; // stops the server and waits for it
    const bool Sent = ::write(Fds[1], &Sec, sizeof(Sec)) == sizeof(Sec);
    ::_exit(Up && Sent ? 0 : 1);
  }
  ::close(Fds[1]);
  double Sec = -1.0;
  if (::read(Fds[0], &Sec, sizeof(Sec)) != sizeof(Sec))
    Sec = -1.0;
  ::close(Fds[0]);
  int Status = 0;
  if (::waitpid(Child, &Status, 0) != Child || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1.0;
  return Sec;
}

/// One pass of the workload over a set-up \p In. served-mix: 2 s of
/// warm-up traffic, then the open loop. table1 and gen-cold: the in-process
/// jobs, with the revisit requests spread evenly between them so that their
/// samples span the whole pass, as the jobs' do.
Pass runPass(const Args &A, Inputs &In, Tracer &T) {
  Pass P;
  ServedHarness &Harness = *In.Harness;
  if (!Harness.error().empty()) {
    P.Error = "server: " + Harness.error();
    return P;
  }
  if (A.Workload == "served-mix") {
    // A server serves its first second several times slower.
    Tracer Off(false);
    double Ignored = 0.0;
    size_t WarmUp = static_cast<size_t>(std::lround(kServedRate * kWarmUpSec));
    Harness.run(generateServedMix(~A.Seed, WarmUp, kServedRate, kRefGap),
                /*OpenLoop=*/true, Off, Ignored);
    std::optional<ServerCounters> Before = Harness.counters();
    P.ServedRequests = In.Requests;
    P.Served = Harness.run(In.Requests, /*OpenLoop=*/true, T, P.MainWallSec);
    std::optional<ServerCounters> After = Harness.counters();
    if (Before && After)
      P.Counters = *After - *Before;
    P.PeakRssMb = Harness.stop();
    return P;
  }
  Synthesizer Synth;
  const size_t Jobs = A.Workload == "table1"
                          ? table1Passes(A.Seconds) * In.Table1.size()
                          : In.Corpus.size();
  double RevisitSec = 0.0;
  auto RevisitUpTo = [&](size_t JobsDone) {
    const size_t Due = JobsDone * In.Requests.size() / Jobs;
    while (P.Served.size() < Due) {
      const Clock::time_point Start = Clock::now();
      const size_t I = P.Served.size();
      P.Served.push_back(Harness.send(In.Requests[I], I, T));
      RevisitSec += since(Start);
    }
  };
  const Clock::time_point Start = Clock::now();
  if (A.Workload == "table1") {
    for (size_t Round = 0; P.Main.size() < Jobs; ++Round)
      for (const models::BenchmarkModel &M : In.Table1) {
        P.Main.push_back(runInProcess(M.Name, M.FlatCsg, Synth, P.Main.size(),
                                      T, Round == 0 ? &P.Layers : nullptr,
                                      nullptr));
        RevisitUpTo(P.Main.size());
      }
    P.FirstPassJobs = In.Table1.size();
  } else {
    for (const GenModel &M : In.Corpus) {
      P.Main.push_back(runInProcess(M.Name, M.Flat, Synth, P.Main.size(), T,
                                    &P.Layers, &M.Source));
      RevisitUpTo(P.Main.size());
    }
    P.FirstPassJobs = In.Corpus.size();
  }
  P.MainWallSec = since(Start) - RevisitSec;
  P.PeakRssMb = peakRssMb(); // the revisit server is another process
  P.ServedRequests = In.Requests;
  P.Counters = Harness.counters();
  return P;
}

/// Times the layers the synthesizer does not report on its own, on the
/// in-process inputs: rule compilation, saturation round 1 on a graph
/// seeded with the input, and one k-best extraction of the saturated graph.
struct Probe {
  double CompileSec = 0, SaturateSec = 0, SearchSec = 0, ApplySec = 0,
         RebuildSec = 0, Iterations = 0, ENodes = 0, ExtractOnceSec = 0;
};

Probe probeLayers(const std::vector<TermPtr> &Inputs, Tracer &T) {
  Probe Out;
  SynthesisOptions Opts;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    ScopedSpan Root(T, "probe", I);
    Clock::time_point Start = Clock::now();
    // As the synthesizer does per job: build the rules, then compile them
    // (the compiled set refers to the rule vector, which must outlive it).
    std::vector<Rewrite> Rewrites;
    std::unique_ptr<RuleSet> Rules;
    {
      ScopedSpan S(T, "saturate.compile", I, Root.id());
      Rewrites = pipelineRules();
      Rules = std::make_unique<RuleSet>(Rewrites);
    }
    Out.CompileSec += since(Start);
    EGraph G;
    EClassId Root1 = G.addTerm(dedupeUnionOperands(Inputs[I]));
    G.rebuild();
    Start = Clock::now();
    RunnerReport Rep;
    {
      ScopedSpan S(T, "saturate", I, Root.id());
      Rep = Runner(Opts.Limits).run(G, *Rules);
    }
    Out.SaturateSec += since(Start);
    Out.SearchSec += Rep.SearchSec;
    Out.ApplySec += Rep.ApplySec;
    Out.RebuildSec += Rep.RebuildSec;
    Out.Iterations += static_cast<double>(Rep.numIterations());
    Out.ENodes += static_cast<double>(G.numNodes());
    Start = Clock::now();
    {
      ScopedSpan S(T, "extract.once", I, Root.id());
      KBestExtractor X(G, costFn(Opts.Cost), Opts.TopK,
                       Opts.Limits.NumThreads);
      std::vector<RankedTerm> Best = X.extract(Root1);
      (void)Best;
    }
    Out.ExtractOnceSec += since(Start);
  }
  return Out;
}

std::vector<double> latencies(const std::vector<Job> &Jobs,
                              std::optional<ReqClass> Class = std::nullopt) {
  std::vector<double> Out;
  for (const Job &J : Jobs)
    if (J.Ran && (!Class || J.Class == *Class))
      Out.push_back(J.LatencySec);
  return Out;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

void endToEnd(const Args &A, const Pass &P, const std::vector<Job> &Served,
              double SetupSec, Report &R) {
  const bool Mix = A.Workload == "served-mix";
  const std::vector<Job> &Main = Mix ? Served : P.Main;
  R.add("setup_s", SetupSec, "s",
        "median of " + std::to_string(kSetupReps) +
            " set-ups, each in a fresh child process");
  R.add("jobs_per_s", ratio(static_cast<double>(Main.size()), P.MainWallSec),
        "1/s", std::to_string(Main.size()) + " jobs");
  R.percentileMs("latency_p50_ms", latencies(Main), 0.50, true);
  R.percentileMs("latency_p95_ms", latencies(Main), 0.95, true);
  // In-process jobs are all cold; their repeats and near-misses come from
  // the served revisit.
  R.percentileMs("cold_p50_ms",
                 Mix ? latencies(Served, ReqClass::Cold) : latencies(Main),
                 0.50, true);
  R.percentileMs("cold_p95_ms",
                 Mix ? latencies(Served, ReqClass::Cold) : latencies(Main),
                 0.95, true);
  R.percentileMs("warm_p50_ms", latencies(Served, ReqClass::NearMiss), 0.50,
                 true);
  R.percentileMs("hit_p50_ms", latencies(Served, ReqClass::Repeat), 0.50,
                 true);
}

void perLayer(const Pass &P, const std::vector<Job> &Served, const Probe &Pr,
              double OverheadRatio, Report &R) {
  const LayerSums &L = P.Layers;
  R.add("parse.busy_s", L.ParseSec, "s");
  R.add("parse.mb_per_s", ratio(L.ParseBytes / 1e6, L.ParseSec), "MB/s");
  R.add("intern.hit_rate",
        ratio(static_cast<double>(P.InternHits),
              static_cast<double>(P.InternHits + P.InternUnique)),
        "ratio", "makeTerm calls of the traced pass");
  R.add("intern.live_terms", static_cast<double>(P.InternLive), "count",
        "at the end of the traced pass");

  R.add("saturate.busy_s", Pr.SaturateSec, "s", "probe: Runner::run round 1");
  R.add("saturate.search_s", Pr.SearchSec, "s");
  R.add("saturate.apply_s", Pr.ApplySec, "s");
  R.add("saturate.rebuild_s", Pr.RebuildSec, "s");
  R.add("saturate.iterations", Pr.Iterations, "count");
  R.add("saturate.enodes", Pr.ENodes, "count");
  R.add("saturate.compile_s", Pr.CompileSec, "s");

  R.add("solve.busy_s", L.SolveSec, "s");
  R.add("solve.preprocess_s", L.PreprocessSec, "s");
  R.add("solve.prune_s", L.PruneSec, "s");
  R.add("solve.fit_s", L.FitSec, "s");
  R.add("solve.fold_sites", L.FoldSites, "count");
  R.add("solve.useful_ratio", ratio(L.Inferred, L.FoldSites), "ratio");

  R.add("extract.busy_s", L.ExtractSec, "s");
  R.add("extract.once_s", Pr.ExtractOnceSec, "s", "probe: one k-best pass");
  R.add("extract.redundancy", ratio(L.ExtractSec, Pr.ExtractOnceSec),
        "ratio");

  R.add("synth.busy_s", L.SynthSec, "s");
  R.add("synth.unattributed_s",
        L.SynthSec - L.RewriteSec - L.SolveSec - L.ExtractSec, "s");

  // Served layers: the served-mix run itself, or the in-process
  // workloads' revisit.
  std::vector<double> Wait, ColdRun, HitRun, NearRun, Overhead, Late;
  size_t Repeats = 0, RepeatHits = 0, NearMisses = 0;
  for (size_t I = 0; I < P.Served.size(); ++I) {
    const ServedOutcome &O = P.Served[I];
    const ReqClass C = P.ServedRequests[I].Class;
    Late.push_back(O.LateSec);
    Repeats += C == ReqClass::Repeat;
    NearMisses += C == ReqClass::NearMiss;
    if (!Served[I].Ran)
      continue;
    const bool Hit = O.Status == "cache-hit";
    RepeatHits += C == ReqClass::Repeat && Hit;
    Wait.push_back(O.QueueSec);
    Overhead.push_back(O.ClientSec - O.QueueSec - O.RunSec);
    (C == ReqClass::Cold ? ColdRun : C == ReqClass::NearMiss ? NearRun
                                                             : HitRun)
        .push_back(O.RunSec);
  }
  ServerCounters SC = P.Counters.value_or(ServerCounters{});
  R.percentileMs("queue.wait_p50_ms", Wait, 0.50, false);
  R.percentileMs("queue.wait_p95_ms", Wait, 0.95, false);
  R.percentileMs("queue.cold_run_p50_ms", ColdRun, 0.50, false);
  R.add("queue.rejected", SC.Rejected, "count");
  R.add("cache.hits", SC.CacheHits, "count");
  R.add("cache.misses", SC.CacheMisses, "count");
  R.add("cache.repeat_hit_ratio",
        ratio(static_cast<double>(RepeatHits), static_cast<double>(Repeats)),
        "ratio");
  R.percentileMs("cache.hit_run_p50_ms", HitRun, 0.50, false);
  R.add("warm.snapshot_hits", SC.SnapshotHits, "count");
  R.add("warm.useful_ratio",
        ratio(SC.SnapshotHits, static_cast<double>(NearMisses)), "ratio");
  R.percentileMs("warm.run_p50_ms", NearRun, 0.50, false);
  R.percentileMs("rpc.overhead_p50_ms", Overhead, 0.50, false);
  R.percentileMs("rpc.overhead_p95_ms", Overhead, 0.95, false);
  R.add("rpc.frames", SC.Frames, "count");
  R.add("rpc.bad_frames", SC.BadFrames, "count");
  R.add("rpc.rejected_quota", SC.RejectedQuota, "count");
  R.percentileMs("loadgen.late_p95_ms", Late, 0.95, false);
  R.add("loadgen.sent", static_cast<double>(P.Served.size()), "count");
  R.add("trace.overhead_ratio", OverheadRatio, "ratio",
        "traced / untraced summed job latency");
}

/// Summed latency of the jobs a pass ran: the tracing-overhead base.
double summedLatency(const Pass &P) {
  double Sum = 0.0;
  for (const Job &J : P.Main)
    Sum += J.LatencySec;
  for (const ServedOutcome &O : P.Served)
    Sum += O.LatencySec;
  return Sum;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool Have[4] = {false, false, false, false};
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
      Have[0] = true;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      Have[1] = *End == '\0';
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      Have[2] = *End == '\0' && A.Seconds > 0;
    } else if (K == "--trace") {
      A.Trace = V == "1";
      Have[3] = V == "0" || V == "1";
    } else if (K == "--trace-dir") {
      A.TraceDir = V;
    } else {
      return false;
    }
  }
  return Have[0] && Have[1] && Have[2] && Have[3] &&
         (A.Workload == "table1" || A.Workload == "gen-cold" ||
          A.Workload == "served-mix");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 3 && std::string(Argv[1]) == "--serve")
    return serveForever(static_cast<uint16_t>(std::atoi(Argv[2])));
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table1|gen-cold|served-mix "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }

  // setup_s: set-ups timed in child processes, then the one this process
  // uses, untimed.
  std::vector<double> SetupTimes;
  for (int I = 0; I < kSetupReps && !A.Trace; ++I) {
    SetupTimes.push_back(timeSetUpInChild(A));
    if (SetupTimes.back() < 0.0) {
      std::fprintf(stderr, "[perfbench] a timed set-up failed\n");
      return 1;
    }
  }
  Inputs In;
  setUp(A, In);

  Tracer Off(false), On(true);
  Pass Untraced = runPass(A, In, Off);
  Pass Traced;
  Probe Pr;
  if (A.Trace) {
    In = Inputs{};
    setUp(A, In); // a fresh server: the first pass filled its cache
    const TermInternStats Before = termInternStats();
    Traced = runPass(A, In, On);
    const TermInternStats After = termInternStats();
    Traced.InternHits = After.Hits - Before.Hits;
    Traced.InternUnique = After.Unique - Before.Unique;
    Traced.InternLive = After.Live;
    std::vector<TermPtr> ProbeInputs;
    for (size_t I = 0; I < Traced.FirstPassJobs; ++I)
      ProbeInputs.push_back(Traced.Main[I].Input);
    Pr = probeLayers(ProbeInputs, On);
    if (A.Workload == "served-mix")
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        const std::string &Source = In.Requests[I].Source;
        ScopedSpan S(On, "parse", I);
        const Clock::time_point Start = Clock::now();
        (void)parseSexp(Source);
        Traced.Layers.ParseSec += since(Start);
        Traced.Layers.ParseBytes += static_cast<double>(Source.size());
      }
  }
  const Pass &P = A.Trace ? Traced : Untraced;
  if (!P.Error.empty()) {
    std::fprintf(stderr, "[perfbench] %s\n", P.Error.c_str());
    return 1;
  }

  // The correctness gate, outside every timed region.
  std::vector<Job> Main = P.Main;
  std::vector<Job> Served = servedJobs(P.ServedRequests, P.Served);
  gate(Main);
  gate(Served);
  size_t Attempted = Main.size() + Served.size(), Ok = 0;
  for (const std::vector<Job> *Jobs : {&Main, &Served})
    for (const Job &J : *Jobs)
      Ok += J.Ok;
  // Passes over the same inputs must agree byte for byte.
  bool Correct = Ok == Attempted;
  for (size_t I = P.FirstPassJobs; I < Main.size(); ++I)
    if (Main[I].Programs != Main[I % P.FirstPassJobs].Programs) {
      std::printf("[perfbench] FAILED %s: pass outputs differ\n",
                  Main[I].Name.c_str());
      Correct = false;
    }

  const bool Mix = A.Workload == "served-mix";
  const std::vector<Job> &Scored = Mix ? Served : Main;
  const size_t ScoredCount = Mix ? Served.size() : P.FirstPassJobs;
  double OutputNodes = 0, Structure = 0;
  for (size_t I = 0; I < ScoredCount; ++I) {
    OutputNodes += static_cast<double>(Scored[I].OutputNodes);
    Structure += Scored[I].Structure;
  }

  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  // The slowest jobs, for reading a run; not a metric.
  std::vector<const Job *> Slowest;
  for (const Job &J : Scored)
    Slowest.push_back(&J);
  std::sort(Slowest.begin(), Slowest.end(), [](const Job *X, const Job *Y) {
    return X->LatencySec > Y->LatencySec;
  });
  for (size_t I = 0; I < Slowest.size() && I < 5; ++I)
    std::printf("slowest %zu: %-36s %-9s %10.2f ms\n", I + 1,
                Slowest[I]->Name.c_str(), className(Slowest[I]->Class),
                1e3 * Slowest[I]->LatencySec);
  Report R;
  if (!A.Trace) {
    endToEnd(A, P, Served, median(SetupTimes), R);
    R.add("ok_ratio",
          ratio(static_cast<double>(Ok), static_cast<double>(Attempted)),
          "ratio");
    R.add("output_nodes", OutputNodes, "count");
    R.add("structure_found", Structure, "count");
    R.add("peak_rss_mb", P.PeakRssMb, "MB");
  } else {
    if (A.Workload == "table1") {
      std::printf("%-28s %10s %12s %5s\n", "model", "median_s", "output_nodes",
                  "rank");
      for (size_t M = 0; M < P.FirstPassJobs; ++M) {
        std::vector<double> Times;
        for (size_t I = M; I < Main.size(); I += P.FirstPassJobs)
          Times.push_back(Main[I].LatencySec);
        std::printf("%-28s %10.4f %12llu %5zu\n", Main[M].Name.c_str(),
                    median(Times),
                    static_cast<unsigned long long>(Main[M].OutputNodes),
                    Main[M].Rank);
      }
    }
    perLayer(P, Served, Pr,
             ratio(summedLatency(Traced), summedLatency(Untraced)), R);
    if (!A.TraceDir.empty()) {
      std::string Path = A.TraceDir + "/" + A.Workload + "-seed" +
                         std::to_string(A.Seed) + ".jsonl";
      if (On.write(Path))
        std::printf("[perfbench] wrote %zu spans to %s\n", On.size(),
                    Path.c_str());
      else
        std::fprintf(stderr, "[perfbench] could not write %s\n", Path.c_str());
    }
  }
  for (const std::string &M : R.missing()) {
    std::printf("[perfbench] FAILED: too few samples for %s\n", M.c_str());
    Correct = false;
  }
  R.print(Correct, Attempted, Attempted - Ok);
  return Correct ? 0 : 1;
}
