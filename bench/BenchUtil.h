//===-- bench/BenchUtil.h - Shared experiment-harness helpers ---*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row-formatting, measurement, and JSON-report helpers shared by the
/// experiment harnesses in bench/. Each harness regenerates one table or
/// figure of the paper, prints the same rows/series the paper reports, and
/// writes a machine-readable BENCH_<name>.json (see JsonReport) so the
/// paper-vs-measured comparison is tracked across PRs.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_BENCH_BENCHUTIL_H
#define SHRINKRAY_BENCH_BENCHUTIL_H

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "geom/Sample.h"
#include "synth/Synthesizer.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>
#ifndef _WIN32
#include <sys/resource.h>
#endif

namespace shrinkray {
namespace bench {

/// Process peak resident set size in MiB (getrusage; 0 when unavailable).
/// Peak RSS is monotone over the process lifetime, so a per-row value
/// records the high-water mark as of that row's completion.
inline double peakRssMb() {
#ifndef _WIN32
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) == 0)
    return static_cast<double>(RU.ru_maxrss) / 1024.0;
#endif
  return 0.0;
}


/// Monotonic wall timer. All harness-level timing must go through
/// steady_clock so the BENCH_*.json numbers stay comparable across runs
/// even when the system clock steps (the synthesizer's own Stats.Seconds
/// is steady_clock as well).
class WallTimer {
public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

private:
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
};

/// Minimal-escape for JSON string values.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// The one JSON spelling of a double (round-trippable %.9g).
inline std::string jsonDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

/// An insertion-ordered JSON object; values are serialized on insertion.
class JsonObject {
public:
  JsonObject &add(const std::string &Key, double V) {
    return raw(Key, jsonDouble(V));
  }
  JsonObject &add(const std::string &Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  JsonObject &add(const std::string &Key, const std::string &V) {
    return raw(Key, "\"" + jsonEscape(V) + "\"");
  }
  JsonObject &add(const std::string &Key, const char *V) {
    return add(Key, std::string(V));
  }
  template <typename T,
            typename std::enable_if<std::is_integral<T>::value &&
                                        !std::is_same<T, bool>::value,
                                    int>::type = 0>
  JsonObject &add(const std::string &Key, T V) {
    return raw(Key, std::to_string(V));
  }

  std::string render() const {
    std::string Out = "{";
    for (size_t I = 0; I < Fields.size(); ++I) {
      if (I)
        Out += ", ";
      Out += "\"" + jsonEscape(Fields[I].first) + "\": " + Fields[I].second;
    }
    return Out + "}";
  }

private:
  JsonObject &raw(const std::string &Key, std::string Value) {
    Fields.emplace_back(Key, std::move(Value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Appends the memory/interner columns shared by the harness rows:
/// process-peak RSS plus the term-interner counters. The counters are
/// cumulative across the process, so deltas between consecutive rows
/// attribute interning traffic to the work in between.
inline void addResourceFields(JsonObject &O) {
  const TermInternStats S = termInternStats();
  O.add("peak_rss_mb", peakRssMb())
      .add("terms_interned", S.Unique)
      .add("intern_hit_rate", S.hitRate());
}

/// Accumulates one harness' machine-readable results and writes them to
/// BENCH_<name>.json — the per-PR perf trajectory the repo tracks. Scalar
/// headline metrics go on top(); per-model/per-config series go into row()
/// entries. write() stamps a total "time_sec" (steady_clock, measured from
/// construction) so every report is timed even if the harness records no
/// finer-grained timing itself.
///
/// The file lands in $SHRINKRAY_BENCH_DIR when set (the `bench` CMake
/// target points it at the repo root), else the current directory.
class JsonReport {
public:
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {}

  JsonObject &top() { return Top; }
  JsonObject &row() {
    Rows.emplace_back();
    return Rows.back();
  }

  /// Writes BENCH_<name>.json; returns false (after a diagnostic) on I/O
  /// failure so harnesses can surface it in their exit status.
  bool write() const {
    const char *Dir = std::getenv("SHRINKRAY_BENCH_DIR");
    std::string Path =
        (Dir && *Dir ? std::string(Dir) + "/" : std::string()) + "BENCH_" +
        Name + ".json";

    std::string Out = "{\n  \"bench\": \"" + jsonEscape(Name) + "\",\n";
    Out += "  \"time_sec\": " + jsonDouble(Timer.seconds()) + ",\n";
    Out += "  \"metrics\": " + Top.render();
    if (!Rows.empty()) {
      Out += ",\n  \"rows\": [\n";
      for (size_t I = 0; I < Rows.size(); ++I)
        Out += "    " + Rows[I].render() + (I + 1 < Rows.size() ? ",\n" : "\n");
      Out += "  ]";
    }
    Out += "\n}\n";

    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "[bench] cannot write %s\n", Path.c_str());
      return false;
    }
    size_t Written = std::fwrite(Out.data(), 1, Out.size(), F);
    bool Ok = std::fclose(F) == 0 && Written == Out.size();
    if (!Ok) {
      std::fprintf(stderr, "[bench] short/failed write to %s\n", Path.c_str());
      return false;
    }
    std::printf("[bench] wrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  WallTimer Timer;
  JsonObject Top;
  std::vector<JsonObject> Rows;
};

/// Measured per-model metrics mirroring Table 1's columns.
struct MeasuredRow {
  uint64_t InputNodes = 0, OutputNodes = 0;
  uint64_t InputPrims = 0, OutputPrims = 0;
  uint64_t InputDepth = 0, OutputDepth = 0;
  std::string Loops = "-";
  std::string Forms = "-";
  double TimeSec = 0.0;
  // Phase breakdown of TimeSec (see SynthesisStats): saturation, solver
  // inference, and extraction are reported separately so a regression in
  // one engine is attributable from the BENCH_*.json rows alone.
  double RewriteSec = 0.0;
  double SolveSec = 0.0;
  double ExtractSec = 0.0;
  // RewriteSec broken down by saturation sub-phase (RunnerReport totals):
  // compiled-group search, memo-filtered apply, rebuild + log compaction.
  double RewriteSearchSec = 0.0;
  double RewriteApplySec = 0.0;
  double RewriteRebuildSec = 0.0;
  // SolveSec broken down by solver-pipeline stage (SolveBreakdown totals):
  // stage-0 sequence profiling, stage-1 family pruning, stage-2 module
  // fitting. The remainder of SolveSec is determinization and insertion.
  double SolvePreprocessSec = 0.0;
  double SolvePruneSec = 0.0;
  double SolveFitSec = 0.0;
  size_t Rank = 0; ///< 1-based rank of first structured program; 0 = none
  bool Sound = false;

  /// Adds \p Other's wall clock and every phase field above to this row
  /// (a harness that bills a second run to the same row uses this, so no
  /// phase can be left out of the sum).
  void addTimes(const MeasuredRow &Other) {
    TimeSec += Other.TimeSec;
    RewriteSec += Other.RewriteSec;
    SolveSec += Other.SolveSec;
    ExtractSec += Other.ExtractSec;
    RewriteSearchSec += Other.RewriteSearchSec;
    RewriteApplySec += Other.RewriteApplySec;
    RewriteRebuildSec += Other.RewriteRebuildSec;
    SolvePreprocessSec += Other.SolvePreprocessSec;
    SolvePruneSec += Other.SolvePruneSec;
    SolveFitSec += Other.SolveFitSec;
  }
};

/// Runs the synthesizer on \p Input and gathers Table 1 metrics. The rank
/// and loop columns describe the first structured program in top-k (the
/// paper's `r` column); sizes describe the best program.
inline MeasuredRow measureModel(const TermPtr &Input,
                                const SynthesisOptions &Opts) {
  MeasuredRow Row;
  Row.InputNodes = termSize(Input);
  Row.InputPrims = termPrimitives(Input);
  Row.InputDepth = termDepth(Input);

  SynthesisResult R = Synthesizer(Opts).synthesize(Input);
  Row.TimeSec = R.Stats.Seconds;
  Row.RewriteSec = R.Stats.RewriteSeconds;
  Row.SolveSec = R.Stats.SolveSeconds;
  Row.ExtractSec = R.Stats.ExtractSeconds;
  Row.RewriteSearchSec = R.Stats.RewriteSearchSeconds;
  Row.RewriteApplySec = R.Stats.RewriteApplySeconds;
  Row.RewriteRebuildSec = R.Stats.RewriteRebuildSeconds;
  Row.SolvePreprocessSec = R.Stats.SolvePreprocessSeconds;
  Row.SolvePruneSec = R.Stats.SolvePruneSeconds;
  Row.SolveFitSec = R.Stats.SolveFitSeconds;
  if (R.Programs.empty())
    return Row;

  const TermPtr &Best = R.best();
  Row.OutputNodes = termSize(Best);
  Row.OutputPrims = termPrimitives(Best);
  Row.OutputDepth = termDepth(Best);
  Row.Rank = R.structureRank();
  if (Row.Rank > 0) {
    LoopSummary Loops = describeLoops(R.Programs[Row.Rank - 1].T);
    Row.Loops = Loops.Notation;
    Row.Forms = Loops.Forms;
  }

  EvalResult Flat = evalToFlatCsg(Best);
  if (Flat) {
    geom::SampleOptions SampleOpts;
    SampleOpts.NumPoints = 4000;
    SampleOpts.MismatchTolerance = 0.002; // epsilon-snapped constants
    Row.Sound = geom::sampleEquivalent(Input, Flat.Value, SampleOpts);
  }
  return Row;
}

/// Serializes a MeasuredRow's Table 1 columns into a JSON object.
inline void addMeasuredFields(JsonObject &O, const MeasuredRow &Row) {
  O.add("input_nodes", Row.InputNodes)
      .add("output_nodes", Row.OutputNodes)
      .add("input_prims", Row.InputPrims)
      .add("output_prims", Row.OutputPrims)
      .add("input_depth", Row.InputDepth)
      .add("output_depth", Row.OutputDepth)
      .add("loops", Row.Loops)
      .add("forms", Row.Forms)
      .add("time_sec", Row.TimeSec)
      .add("rewrite_sec", Row.RewriteSec)
      .add("rewrite_search_sec", Row.RewriteSearchSec)
      .add("rewrite_apply_sec", Row.RewriteApplySec)
      .add("rewrite_rebuild_sec", Row.RewriteRebuildSec)
      .add("solve_sec", Row.SolveSec)
      .add("solve_preprocess_sec", Row.SolvePreprocessSec)
      .add("solve_prune_sec", Row.SolvePruneSec)
      .add("solve_fit_sec", Row.SolveFitSec)
      .add("extract_sec", Row.ExtractSec)
      .add("rank", Row.Rank)
      .add("sound", Row.Sound);
}

/// Percentage reduction helper (positive = smaller output).
inline double reductionPct(uint64_t In, uint64_t Out) {
  if (In == 0)
    return 0.0;
  return 100.0 * (1.0 - static_cast<double>(Out) / static_cast<double>(In));
}

inline void printRule(char Ch = '-', int Width = 118) {
  for (int I = 0; I < Width; ++I)
    std::putchar(Ch);
  std::putchar('\n');
}

} // namespace bench
} // namespace shrinkray

#endif // SHRINKRAY_BENCH_BENCHUTIL_H
