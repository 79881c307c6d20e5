//===-- synth/Synthesizer.h - The ShrinkRay pipeline ------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end ShrinkRay pipeline (paper Figure 5): build an e-graph from
/// the flat CSG, saturate it with the syntactic rewrites, determinize and
/// sort fold lists, invoke the arithmetic solvers to insert Mapi/nested-Fold
/// programs, and extract the top-k LambdaCAD programs under a cost function.
///
/// Typical use:
/// \code
///   SynthesisResult R = Synthesizer().synthesize(flatCsg);
///   for (const RankedTerm &P : R.Programs)
///     std::cout << prettyPrint(P.T) << "\n";
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SYNTH_SYNTHESIZER_H
#define SHRINKRAY_SYNTH_SYNTHESIZER_H

#include "egraph/Runner.h"
#include "synth/Cost.h"
#include "synth/Inference.h"
#include "synth/ListManip.h"

namespace shrinkray {

/// Pipeline configuration.
struct SynthesisOptions {
  RunnerLimits Limits;         ///< rewriting fuel (paper's `fuel`)
  SolverOptions Solver;        ///< epsilon band etc.
  size_t TopK = 5;             ///< programs to return (paper uses 5)
  CostKind Cost = CostKind::AstSize;
  unsigned MainLoopIters = 1;  ///< paper: one iteration suffices in practice
  bool EnableLoopInference = true;
  bool EnableIrregular = true;
  bool EnableListSorting = true;
  size_t MaxFoldSites = 256;   ///< guard against pathological inputs
};

/// Statistics of one synthesis run.
struct SynthesisStats {
  /// True when the run's cancellation token (SynthesisOptions::Limits.
  /// Cancel — a deadline or an explicit service-side cancel) fired before
  /// the pipeline finished. The result is then *partial*: programs come
  /// from whatever the e-graph held at the cancellation point (always
  /// well-formed, equivalent terms — just not necessarily the ones a full
  /// run would rank first).
  bool Cancelled = false;
  /// True when *any* main-loop saturation round stopped on the runner's
  /// wall-clock safety valve (RunnerLimits::TimeLimitSec). Unlike the
  /// iteration/node fuel limits this is machine- and load-dependent, so
  /// such results must not enter the shared result cache (Rewriting only
  /// retains the last round's report — this flag covers them all).
  bool WallClockTruncated = false;
  RunnerReport Rewriting;      ///< saturation report (last main iteration)
  /// Primitives removed by stage-0 input canonicalization (duplicate Union
  /// operands; union is idempotent). 0 for duplicate-free inputs, where
  /// canonicalization is the identity.
  size_t DedupedPrimitives = 0;
  size_t FoldSites = 0;        ///< fold contexts examined
  size_t Decompositions = 0;   ///< determinized lists solved
  std::vector<InferenceRecord> Records; ///< programs the solvers inserted
  size_t ENodes = 0;           ///< final graph size
  size_t EClasses = 0;
  double Seconds = 0.0;        ///< end-to-end wall clock
  // Per-phase wall clock, summed across main-loop iterations. The three
  // phases cover nearly all of Seconds; the remainder is graph setup.
  double RewriteSeconds = 0.0; ///< equality saturation (Runner)
  double SolveSeconds = 0.0;   ///< determinize + solver inference + sorting
  double ExtractSeconds = 0.0; ///< extraction engine derive/refresh+extract
  // Saturation sub-phases (RunnerReport totals summed across main-loop
  // iterations): compiled-group search, memo-filtered apply, and
  // rebuild + dirty-log compaction.
  double RewriteSearchSeconds = 0.0;
  double RewriteApplySeconds = 0.0;
  double RewriteRebuildSeconds = 0.0;
  // Solver-pipeline stages of SolveSeconds (SolveBreakdown totals): stage-0
  // sequence profiling, stage-1 family pruning, stage-2 module fitting.
  // The remainder of SolveSeconds is determinization, graph insertion, and
  // the multi-index loop fits.
  double SolvePreprocessSeconds = 0.0;
  double SolvePruneSeconds = 0.0;
  double SolveFitSeconds = 0.0;
};

/// The top-k programs plus run statistics.
struct SynthesisResult {
  std::vector<RankedTerm> Programs; ///< cheapest first; never empty on
                                    ///< success (index 0 == best)
  SynthesisStats Stats;

  const TermPtr &best() const {
    assert(!Programs.empty() && "synthesis produced no programs");
    return Programs.front().T;
  }

  /// Rank (1-based) of the first program exposing loop structure, or 0
  /// when none does (Table 1 column `r`).
  size_t structureRank() const;
};

/// The ShrinkRay synthesizer.
class Synthesizer {
public:
  explicit Synthesizer(SynthesisOptions Opts = {}) : Opts(Opts) {}

  /// Lifts a flat CSG model into parameterized LambdaCAD programs.
  /// \p FlatCsg must satisfy isFlatCsg().
  SynthesisResult synthesize(const TermPtr &FlatCsg) const;

  const SynthesisOptions &options() const { return Opts; }

private:
  SynthesisOptions Opts;
};

/// Syntactic loop summary of a synthesized program (Table 1 columns n-l/f).
struct LoopSummary {
  bool HasLoops = false;
  std::string Notation; ///< e.g. "n1,60" or "n2,2,3"; ";"-joined if several
  std::string Forms;    ///< e.g. "d1", "d2", "theta"; ","-joined unique
};

/// Summarizes the loops and closed-form classes appearing in \p Program.
LoopSummary describeLoops(const TermPtr &Program);

} // namespace shrinkray

#endif // SHRINKRAY_SYNTH_SYNTHESIZER_H
