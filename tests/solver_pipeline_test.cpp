//===-- tests/solver_pipeline_test.cpp - Staged solver pipeline -----------===//
//
// Coverage for the staged solver pipeline (Pipeline.h) and the stage-0
// input canonicalization:
//
//  * the duplicate-element pathology: a Union of three identical cubes
//    must synthesize in well under a second with a bounded e-graph (the
//    pre-pipeline behavior was an unbounded fold-list blowup);
//  * dedupeUnionOperands unit behavior: pointer identity on duplicate-free
//    inputs, per-spine multiset collapse, boolean contexts kept separate;
//  * sequence profiling and the stage-1 interval-pruning bounds, including
//    near-band-edge sequences that must NOT be pruned;
//  * pruning soundness differentials: solveAll with pruning on vs. off is
//    bit-identical on adversarial and random sequences, and end-to-end
//    synthesis with pruning disabled reproduces the exact programs on the
//    whole bench corpus (per-module vs. monolithic equivalence);
//  * cancellation: a fired token short-circuits the pipeline between
//    stages and inside the trig frequency scan, and a cancelled synthesis
//    still returns a well-formed partial result;
//  * incremental extraction refresh across fold-site-like mutations, both
//    refreshed after each site and refreshed once after all of them (the
//    synthesizer's once-per-round pattern), stays bit-identical to the
//    from-scratch fixed-point oracle;
//  * dedup-aware determinization (UniqueElements) and solver-module
//    attribution (InferenceRecord::Modules).
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "solvers/FunctionSolver.h"
#include "solvers/PolyModule.h"
#include "solvers/Prune.h"
#include "solvers/TrigModule.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace shrinkray;

// Sanitizer instrumentation slows wall-clock bounds far past the Release
// numbers the pathology gate targets; scale them rather than skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SHRINKRAY_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SHRINKRAY_SANITIZED 1
#endif
#endif
#ifdef SHRINKRAY_SANITIZED
static constexpr double TimeBoundScale = 20.0;
#else
static constexpr double TimeBoundScale = 1.0;
#endif

namespace {

constexpr double kPi = 3.14159265358979323846;

double wallSeconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

TermPtr identicalCube() {
  // Int literals, matching both the committed sexp reproducer and the Int
  // spelling extraction prefers.
  return tTranslate(tVec3(tInt(1), tInt(2), tInt(3)), tUnit());
}

TermPtr threeIdenticalCubes() {
  return tUnionAll({identicalCube(), identicalCube(), identicalCube()});
}

/// Byte-exact fingerprint of a solve result (what "pruning never changes
/// results" means: same forms, same coefficients, same order, same module).
/// Coefficients print as hex floats, so one ulp apart is a difference.
std::string fingerprint(const std::vector<ClosedForm> &Forms) {
  std::ostringstream S;
  S << std::hexfloat;
  for (const ClosedForm &F : Forms)
    S << static_cast<int>(F.Kind) << "|" << F.A << "|" << F.B << "|" << F.C
      << "|" << F.D << "|" << F.R2 << "|" << F.Module << "\n";
  return S.str();
}

/// The trig scan's candidate frequencies for \p N samples, enumerated as
/// fitTrigForm does: 360*m/k for k = 2..2n and m = 1..3, below 360, sorted
/// and deduplicated.
std::vector<double> scanFrequencies(size_t N) {
  std::vector<double> Out;
  for (size_t K = 2; K <= 2 * N; ++K)
    for (size_t M = 1; M <= 3; ++M) {
      double B = 360.0 * static_cast<double>(M) / static_cast<double>(K);
      if (B < 360.0)
        Out.push_back(B);
    }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

/// Amplitude, phase (degrees) and offset of a test sinusoid.
struct Wave {
  double A, C, D;
};

/// Band-edge test waves: plain, Figure 19's offset shape, a large
/// amplitude, and a 1e6 offset (where the magnitude-scaled slack matters).
constexpr Wave kWaves[] = {
    {10.0, 0.0, 0.0}, {7.07, 45.0, 10.0}, {250.0, 300.0, -40.0},
    {3.0, 17.0, 1e6}};

/// \p N samples of A*sin(Freq*i + C) + D, evaluated as verification does.
std::vector<double> sinusoid(size_t N, const Wave &W, double Freq) {
  ClosedForm F;
  F.Kind = FormKind::Trig;
  F.A = W.A;
  F.B = Freq;
  F.C = W.C;
  F.D = W.D;
  std::vector<double> Ys;
  for (size_t I = 0; I < N; ++I)
    Ys.push_back(F.evaluate(static_cast<double>(I)));
  return Ys;
}

/// Moves every sample of \p Ys by +-\p Shift. Pattern 0 alternates signs
/// (+-+-: the worst case of the recurrence bound when cos b >= 0), 1 uses
/// blocks of three (+++---: the worst case when cos b < 0), 2 is a fixed
/// pseudo-random sign sequence.
std::vector<double> nudged(std::vector<double> Ys, double Shift,
                           int Pattern) {
  for (size_t I = 0; I < Ys.size(); ++I) {
    bool Up = Pattern == 0   ? I % 2 == 0
              : Pattern == 1 ? (I / 3) % 2 == 0
                             : ((I * 2654435761u) >> 7) % 2 == 0;
    Ys[I] += Up ? Shift : -Shift;
  }
  return Ys;
}

/// gear's tooth-angle line 0, 6, ..., 354 (60 samples).
std::vector<double> gearAngles() {
  std::vector<double> Ys;
  for (int I = 0; I < 60; ++I)
    Ys.push_back(6.0 * I);
  return Ys;
}

/// Byte-exact transcript of a synthesis result (program sexps and costs).
std::string transcript(const SynthesisResult &R) {
  std::ostringstream S;
  for (const RankedTerm &P : R.Programs)
    S << printSexp(P.T) << " @" << P.Cost << "\n";
  return S.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// The duplicate-element pathology
//===----------------------------------------------------------------------===//

TEST(SolverPathology, ThreeIdenticalCubesSynthesizeFastAndBounded) {
  auto Start = std::chrono::steady_clock::now();
  SynthesisResult R = Synthesizer().synthesize(threeIdenticalCubes());
  double Elapsed = wallSeconds(Start);

  // The recorded pathology took ~90 s / unbounded memory; post-dedup the
  // model is a single cube and must be near-instant with a tiny graph.
  EXPECT_LT(Elapsed, 1.0 * TimeBoundScale);
  EXPECT_LT(R.Stats.ENodes, 2000u);
  EXPECT_EQ(R.Stats.DedupedPrimitives, 2u);

  ASSERT_FALSE(R.Programs.empty());
  // Value-level comparison: extraction prefers Int spellings while the
  // in-code reproducer uses Float literals; printSexp renders both alike.
  EXPECT_EQ(printSexp(R.best()), printSexp(identicalCube()));
  EXPECT_EQ(termPrimitives(R.best()), 1u);
}

TEST(SolverPathology, CommittedExampleMatchesReproducer) {
  // examples/sexp/three_identical_cubes.sexp is the CLI-facing spelling of
  // the same reproducer; keep the two in sync.
  std::ifstream In(std::string(SHRINKRAY_EXAMPLES_SEXP_DIR) +
                   "/three_identical_cubes.sexp");
  ASSERT_TRUE(In.good());
  std::string Text, Line;
  while (std::getline(In, Line))
    if (Line.empty() || Line[0] != ';')
      Text += Line + "\n";
  ParseResult P = parseSexp(Text);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(printSexp(P.Value), printSexp(threeIdenticalCubes()));
}

//===----------------------------------------------------------------------===//
// Stage 0: input canonicalization (dedupeUnionOperands)
//===----------------------------------------------------------------------===//

TEST(SolverPreprocess, DedupeIsPointerIdentityWithoutDuplicates) {
  TermPtr Clean = tUnion(tTranslate(1, 0, 0, tUnit()), tUnit());
  EXPECT_EQ(dedupeUnionOperands(Clean).get(), Clean.get());

  // Every bench model is duplicate-free: canonicalization must be the
  // identity on the whole corpus (so their synthesis cannot change).
  for (const models::BenchmarkModel &M : models::allModels())
    EXPECT_EQ(dedupeUnionOperands(M.FlatCsg).get(), M.FlatCsg.get())
        << M.Name;
}

TEST(SolverPreprocess, DedupeCollapsesNestedSpines) {
  TermPtr Deduped = dedupeUnionOperands(threeIdenticalCubes());
  EXPECT_TRUE(termEquals(Deduped, identicalCube()));

  // Duplicates interleaved with distinct operands: only the repeats drop,
  // order of first occurrences is preserved.
  TermPtr A = tTranslate(1, 0, 0, tUnit());
  TermPtr B = tTranslate(2, 0, 0, tUnit());
  TermPtr C = tTranslate(3, 0, 0, tUnit());
  TermPtr Mixed = tUnion(A, tUnion(B, tUnion(A, tUnion(C, B))));
  TermPtr Out = dedupeUnionOperands(Mixed);
  EXPECT_EQ(termPrimitives(Out), 3u);
  EXPECT_TRUE(termEquals(Out, tUnion(A, tUnion(B, C)))) << printSexp(Out);
}

TEST(SolverPreprocess, DedupeKeepsBooleanContextsSeparate) {
  TermPtr A = tTranslate(1, 0, 0, tUnit());
  // Each Union spine under the Diff is its own multiset; dedup must not
  // merge across the Diff (only union itself is idempotent).
  TermPtr T = tDiff(tUnion(A, A), tUnion(A, A));
  TermPtr Out = dedupeUnionOperands(T);
  EXPECT_TRUE(termEquals(Out, tDiff(A, A))) << printSexp(Out);

  // A repeated subterm in *different* spines is not a duplicate.
  TermPtr NoDup = tDiff(tUnion(A, tTranslate(2, 0, 0, tUnit())), A);
  EXPECT_EQ(dedupeUnionOperands(NoDup).get(), NoDup.get());
}

TEST(SolverPreprocess, SequenceProfileStatistics) {
  SequenceProfile P = sequenceProfile({1, 2, 4, 8});
  EXPECT_EQ(P.N, 4u);
  EXPECT_EQ(P.Min, 1.0);
  EXPECT_EQ(P.Max, 8.0);
  EXPECT_EQ(P.MaxAbs, 8.0);
  EXPECT_EQ(P.MaxAbsD2, 2.0); // |8 - 2*4 + 2| = 2
  EXPECT_EQ(P.MaxAbsD3, 1.0); // |8 - 3*4 + 3*2 - 1| = 1
  EXPECT_EQ(P.UniqueValues, 4u);

  SequenceProfile Dup = sequenceProfile({5, 5, 5});
  EXPECT_EQ(Dup.UniqueValues, 1u);
  EXPECT_EQ(Dup.range(), 0.0);
  EXPECT_EQ(Dup.MaxAbsD2, 0.0);
}

//===----------------------------------------------------------------------===//
// Stage 1: interval pruning
//===----------------------------------------------------------------------===//

TEST(SolverPrune, AdmissibleFamiliesFollowTheBounds) {
  SolverOptions Opts;

  // Constant data: every family's necessary condition holds (trig needs
  // at least 4 samples, so with 3 it is excluded).
  {
    std::vector<double> Ys = {5, 5, 5};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamConstant, FamConstant);
    EXPECT_EQ(Mask & FamTrig, 0u);
  }
  // A real line: constant pruned (range >> 2*Band), poly families stay.
  {
    std::vector<double> Ys = {0, 2, 4, 6};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamConstant, 0u);
    EXPECT_EQ(Mask & FamPoly1, FamPoly1);
    EXPECT_EQ(Mask & FamPoly2, FamPoly2);
    EXPECT_EQ(Mask & FamTrig, FamTrig);
  }
  // A real quadratic: second differences are 2, so Poly1 is pruned; third
  // differences vanish, so Poly2 stays.
  {
    std::vector<double> Ys = {0, 1, 4, 9, 16};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamPoly1, 0u);
    EXPECT_EQ(Mask & FamPoly2, FamPoly2);
  }
  // Cubic growth: every polynomial family fails its bound.
  {
    std::vector<double> Ys = {0, 1, 8, 27, 64};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & (FamConstant | FamPoly1 | FamPoly2), 0u);
  }
  // Pruning disabled: everything is admissible regardless of the data.
  {
    SolverOptions Off;
    Off.EnablePruning = false;
    EXPECT_EQ(admissibleFamilies(sequenceProfile({0, 1, 8, 27, 64}), Off),
              FamAll);
  }
}

TEST(SolverPrune, NearBandEdgeSequencesAreNotPruned) {
  SolverOptions Opts; // Epsilon = 1e-3
  // Range exactly 2*epsilon: c = midpoint verifies with |residual| = eps,
  // sitting on the band boundary. The necessary condition must keep it.
  std::vector<double> Ys = {0.0, 0.002, 0.0, 0.002};
  unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
  EXPECT_EQ(Mask & FamConstant, FamConstant);
  std::optional<ClosedForm> Fit = fitPolyForm(Ys, 0, Opts);
  ASSERT_TRUE(Fit.has_value());
  EXPECT_EQ(Fit->Kind, FormKind::Constant);

  // Just past the boundary the family is gone — and the fit agrees.
  std::vector<double> Beyond = {0.0, 0.0021, 0.0, 0.0021};
  EXPECT_EQ(admissibleFamilies(sequenceProfile(Beyond), Opts) & FamConstant,
            0u);
  EXPECT_FALSE(fitPolyForm(Beyond, 0, Opts).has_value());
}

TEST(SolverPrune, TrigPeriodFeasibility) {
  SolverOptions Opts;
  std::vector<double> Ys = {0, 1, 0, -1, 0, 1, 0, -1}; // period 4
  SequenceProfile P = sequenceProfile(Ys);
  EXPECT_TRUE(trigPeriodFeasible(Ys, 4, P, Opts));
  EXPECT_FALSE(trigPeriodFeasible(Ys, 2, P, Opts)); // |y1 - y3| = 2
  // Period 0 (non-repeating frequency) and periods beyond the sample
  // range carry no constraint.
  EXPECT_TRUE(trigPeriodFeasible(Ys, 0, P, Opts));
  EXPECT_TRUE(trigPeriodFeasible(Ys, Ys.size(), P, Opts));
}

TEST(SolverPrune, TrigRecurrenceFeasibility) {
  SolverOptions Opts;
  const double Eps = Opts.Epsilon;
  auto Feasible = [&](const std::vector<double> &Ys, double Freq) {
    return trigRecurrenceFeasible(Ys, Freq, sequenceProfile(Ys), Opts);
  };

  // Exact sinusoids, and sinusoids with every sample moved to within
  // 0.999*eps of the band edge or onto it, stay feasible at every scan
  // frequency: each one has a verifying fit at that frequency.
  size_t Checked = 0, Rejected = 0;
  std::string FirstRejected;
  auto Expect = [&](const std::vector<double> &Ys, double Freq,
                    const char *What) {
    ++Checked;
    if (Feasible(Ys, Freq))
      return;
    if (Rejected++ == 0) {
      std::ostringstream S;
      S << What << " n=" << Ys.size() << " freq=" << Freq
        << " y0=" << Ys[0];
      FirstRejected = S.str();
    }
  };
  for (size_t N = 4; N <= 24; ++N)
    for (double Freq : scanFrequencies(N))
      for (const Wave &W : kWaves) {
        std::vector<double> Exact = sinusoid(N, W, Freq);
        Expect(Exact, Freq, "exact");
        for (int Pattern = 0; Pattern < 3; ++Pattern) {
          Expect(nudged(Exact, 0.999 * Eps, Pattern), Freq, "0.999*eps");
          Expect(nudged(Exact, Eps, Pattern), Freq, "eps");
        }
      }
  EXPECT_EQ(Rejected, 0u) << "of " << Checked << "; first: " << FirstRejected;

  // 180 degrees: sin(180 i) vanishes on the integer grid, so the scan fits
  // only the cos column; the alternating sequence must survive the prune.
  std::vector<double> Alternating = {5, -3, 5, -3, 5, -3, 5, -3};
  EXPECT_TRUE(Feasible(Alternating, 180.0));
  for (int Pattern = 0; Pattern < 3; ++Pattern)
    EXPECT_TRUE(Feasible(nudged(Alternating, 0.999 * Eps, Pattern), 180.0))
        << "pattern " << Pattern;

  // gear's angle line is no sinusoid: its recurrence residuals grow with
  // i, so every scan frequency is rejected — including the lowest,
  // 360/(2n), whose 2n-sample period the period test cannot use.
  std::vector<double> Angles = gearAngles();
  const SequenceProfile AnglesP = sequenceProfile(Angles);
  const double Lowest = 360.0 / (2.0 * static_cast<double>(Angles.size()));
  EXPECT_TRUE(trigPeriodFeasible(Angles, 2 * Angles.size(), AnglesP, Opts));
  EXPECT_FALSE(trigRecurrenceFeasible(Angles, Lowest, AnglesP, Opts));
  for (double Freq : scanFrequencies(Angles.size()))
    EXPECT_FALSE(trigRecurrenceFeasible(Angles, Freq, AnglesP, Opts))
        << "freq " << Freq;

  // Just past the band edge the prune fires: alternating +-1.01*eps on a
  // 90-degree sinusoid (cos b = 0) spreads the residuals over 4.04*eps.
  EXPECT_FALSE(
      Feasible(nudged(sinusoid(8, kWaves[0], 90.0), 1.01 * Eps, 0), 90.0));

  // Pruning disabled, or fewer than three samples: no constraint.
  SolverOptions Off;
  Off.EnablePruning = false;
  EXPECT_TRUE(trigRecurrenceFeasible(Angles, Lowest, AnglesP, Off));
  std::vector<double> Two = {0, 100};
  EXPECT_TRUE(Feasible(Two, 90.0));
}

//===----------------------------------------------------------------------===//
// Stage 2: modules, preference order, attribution
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, ConstantSubsumesEverything) {
  FunctionSolver S;
  std::vector<ClosedForm> All = S.solveAll({7, 7, 7, 7, 7, 7});
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].Kind, FormKind::Constant);
  EXPECT_EQ(std::string(All[0].Module), "poly");
  std::optional<ClosedForm> First = S.solveSequence({7, 7, 7, 7, 7, 7});
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->Kind, FormKind::Constant);
}

TEST(SolverPipeline, ModuleAttribution) {
  FunctionSolver S;
  std::optional<ClosedForm> Line = S.solveSequence({3, 5, 7, 9, 11});
  ASSERT_TRUE(Line.has_value());
  EXPECT_EQ(Line->Kind, FormKind::Poly1);
  EXPECT_EQ(std::string(Line->Module), "poly");

  std::vector<double> Sine;
  for (int I = 0; I < 12; ++I)
    Sine.push_back(10.0 * std::sin(30.0 * I * kPi / 180.0));
  std::vector<ClosedForm> All = S.solveAll(Sine);
  bool SawTrig = false;
  for (const ClosedForm &F : All)
    if (F.Kind == FormKind::Trig) {
      SawTrig = true;
      EXPECT_EQ(std::string(F.Module), "trig");
    }
  EXPECT_TRUE(SawTrig);
}

TEST(SolverPipeline, BreakdownCountsStages) {
  FunctionSolver S;
  (void)S.solveAll({0, 1, 8, 27, 64}); // cubic: all poly families pruned
  (void)S.solveAll({5, 5, 5, 5, 5});   // constant: one fit, rest subsumed
  const SolveBreakdown &B = S.breakdown();
  EXPECT_EQ(B.Sequences, 2u);
  EXPECT_GE(B.FamiliesPruned, 3u); // cubic loses constant/poly1/poly2
  EXPECT_GE(B.FamiliesFitted, 1u);
  EXPECT_EQ(B.CancelledSolves, 0u);
}

//===----------------------------------------------------------------------===//
// Pruning soundness differentials (per-module pipeline vs. unpruned)
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, PruningDifferentialOnAdversarialSequences) {
  std::vector<std::vector<double>> Sequences = {
      {},                                  // empty
      {42},                                // single sample
      {5, 5, 5, 5, 5, 5, 5, 5},            // constant
      {5, 5, 5, 5, 5, 5, 5, 5.002},        // near-band-edge constant
      {0, 2, 4, 6, 8, 10},                 // line
      {1, 2, 5, 10, 17, 26},               // quadratic
      {0, 1, 8, 27, 64, 125},              // cubic (nothing fits)
      {0.001, -0.001, 0.001, -0.001},      // inside-band oscillation
  };
  // Duplicate-heavy: many repeats of two values.
  Sequences.push_back({3, 3, 3, 9, 3, 3, 3, 9, 3, 3, 3, 9});
  // Mixed poly/trig: an offset sinusoid (Figure 19's shape) keeps both the
  // poly and trig candidates alive until stage 2 decides.
  {
    std::vector<double> Mixed;
    for (int I = 0; I < 10; ++I)
      Mixed.push_back(10 + 7 * std::sin((45.0 * I) * kPi / 180.0));
    Sequences.push_back(std::move(Mixed));
  }
  // Sinusoids at scan frequencies, exact and at 0.999*eps from the band
  // edge, including 1e6 offsets and the 180-degree alternating case (the
  // trig recurrence prune's accept side), plus gear's angle line (its
  // reject side).
  for (size_t N : {4u, 5u, 6u, 7u, 9u, 12u, 17u, 24u})
    for (double Freq : scanFrequencies(N))
      for (const Wave &W : kWaves) {
        std::vector<double> Exact = sinusoid(N, W, Freq);
        Sequences.push_back(Exact);
        for (int Pattern = 0; Pattern < 3; ++Pattern)
          Sequences.push_back(nudged(Exact, 0.999e-3, Pattern));
      }
  Sequences.push_back({5, -3, 5, -3, 5, -3, 5, -3});
  Sequences.push_back(gearAngles());
  // Deterministic pseudo-random sequences (LCG; no libc rand state).
  uint64_t State = 0x2545F4914F6CDD1DULL;
  for (int Seq = 0; Seq < 8; ++Seq) {
    std::vector<double> Ys;
    for (int I = 0; I < 12; ++I) {
      State = State * 6364136223846793005ULL + 1442695040888963407ULL;
      Ys.push_back(static_cast<double>((State >> 33) % 2000) / 10.0 - 100.0);
    }
    Sequences.push_back(std::move(Ys));
  }

  SolverOptions On;
  SolverOptions Off;
  Off.EnablePruning = false;
  FunctionSolver Pruned(On), Unpruned(Off);
  for (size_t I = 0; I < Sequences.size(); ++I) {
    EXPECT_EQ(fingerprint(Pruned.solveAll(Sequences[I])),
              fingerprint(Unpruned.solveAll(Sequences[I])))
        << "sequence " << I;
    // And the first-only variant agrees too.
    std::optional<ClosedForm> A = Pruned.solveSequence(Sequences[I]);
    std::optional<ClosedForm> B = Unpruned.solveSequence(Sequences[I]);
    EXPECT_EQ(A.has_value(), B.has_value()) << "sequence " << I;
    if (A && B) {
      EXPECT_EQ(fingerprint({*A}), fingerprint({*B})) << "sequence " << I;
    }
  }
  // Pruning did real work on these sequences (else the differential is
  // vacuous).
  EXPECT_GT(Pruned.breakdown().FamiliesPruned, 0u);
  EXPECT_EQ(Unpruned.breakdown().FamiliesPruned, 0u);
}

TEST(SolverPipeline, PruningDifferentialOnBenchCorpus) {
  // End-to-end: synthesis with stage-1 pruning disabled must reproduce the
  // exact programs (sexp and cost) on every bench model.
  for (const models::BenchmarkModel &M : models::allModels()) {
    SynthesisOptions On;
    SynthesisOptions Off;
    Off.Solver.EnablePruning = false;
    SynthesisResult ROn = Synthesizer(On).synthesize(M.FlatCsg);
    SynthesisResult ROff = Synthesizer(Off).synthesize(M.FlatCsg);
    EXPECT_EQ(transcript(ROn), transcript(ROff)) << M.Name;
    EXPECT_EQ(ROn.structureRank(), ROff.structureRank()) << M.Name;
  }
}

//===----------------------------------------------------------------------===//
// Cancellation
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, PreCancelledTokenShortCircuitsSolves) {
  SolverOptions Opts;
  Opts.Cancel = CancelToken::make();
  Opts.Cancel.cancel();
  FunctionSolver S(Opts);
  EXPECT_TRUE(S.solveAll({0, 2, 4, 6, 8}).empty());
  EXPECT_FALSE(S.solveSequence({0, 2, 4, 6, 8}).has_value());
  EXPECT_GE(S.breakdown().CancelledSolves, 2u);
}

TEST(SolverPipeline, CancelStopsTrigScanWithPartialResult) {
  std::vector<double> Sine;
  for (int I = 0; I < 16; ++I)
    Sine.push_back(10.0 * std::sin(30.0 * I * kPi / 180.0));

  SolverOptions Live;
  ASSERT_TRUE(fitTrigForm(Sine, Live).has_value());

  // A fired token stops the frequency scan at its next poll; with no
  // candidate accepted yet, the scan reports nothing rather than hanging.
  SolverOptions Fired;
  Fired.Cancel = CancelToken::make();
  Fired.Cancel.cancel();
  EXPECT_FALSE(fitTrigForm(Sine, Fired).has_value());
}

TEST(SolverPipeline, CancelledSynthesisReturnsPartialResult) {
  // Deterministic mid-pipeline deadline: a pre-fired token makes every
  // stage (saturation rounds, solver modules, trig scan) bail at its next
  // check, and the pipeline must still return a well-formed respelling of
  // the input rather than nothing.
  SynthesisOptions Opts;
  Opts.Limits.Cancel = CancelToken::make();
  Opts.Limits.Cancel.cancel();
  SynthesisResult R =
      Synthesizer(Opts).synthesize(models::modelByName("3362402:gear").FlatCsg);
  EXPECT_TRUE(R.Stats.Cancelled);
  ASSERT_FALSE(R.Programs.empty());
  EXPECT_NE(R.best(), nullptr);
}

//===----------------------------------------------------------------------===//
// Extraction refresh across fold-site insertions vs. the fixed-point oracle
//===----------------------------------------------------------------------===//

namespace {

void expectKBestMatchesOracle(const EGraph &G, const KBestExtractor &Engine,
                              size_t K, const std::string &Tag) {
  static const AstSizeCost Cost;
  ReferenceKBestExtractor Ref(G, Cost, K);
  for (EClassId Id : G.classIds()) {
    std::vector<RankedTerm> A = Engine.extract(Id);
    std::vector<RankedTerm> B = Ref.extract(Id);
    ASSERT_EQ(A.size(), B.size()) << Tag << " class " << Id;
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Cost, B[I].Cost) << Tag << " class " << Id;
      EXPECT_EQ(printSexp(A[I].T), printSexp(B[I].T)) << Tag << " class "
                                                      << Id;
    }
  }
}

/// A saturated relay-box graph plus simulated fold-site insertions: new
/// equivalent spellings of the model, each merged into the root class.
struct FoldSiteFixture {
  EGraph G;
  TermPtr Model = models::modelByName("3452260:relay-box").FlatCsg;
  EClassId Root;
  std::vector<TermPtr> Sites = {
      tTranslate(0, 0, 0, Model),
      tUnion(tEmpty(), Model),
      tTranslate(0, 0, 0, tUnion(tEmpty(), Model)),
  };

  FoldSiteFixture() : Root(G.addTerm(Model)) {
    G.rebuild();
    Runner R(RunnerLimits{.IterLimit = 8, .NodeLimit = 60000,
                          .TimeLimitSec = 30.0});
    R.run(G, pipelineRules());
  }

  void insertSite(size_t I) {
    EClassId New = G.addTerm(Sites[I]);
    G.merge(Root, New);
    G.rebuild();
  }
};

} // namespace

TEST(ExtractRefresh, PerSiteRefreshMatchesOracleAcrossMutations) {
  // The synthesizer refreshes once per round, but the engine also
  // supports refreshing after every mutation; replay that access pattern
  // — create early, mutate, refresh, extract — against the fixed-point
  // oracle after each step.
  FoldSiteFixture F;
  static const AstSizeCost Cost;
  KBestExtractor Engine(F.G, Cost, 5);
  expectKBestMatchesOracle(F.G, Engine, 5, "post-saturation");

  for (size_t I = 0; I < F.Sites.size(); ++I) {
    F.insertSite(I);
    Engine.refresh();
    expectKBestMatchesOracle(F.G, Engine, 5, "site " + std::to_string(I));
  }
}

TEST(ExtractRefresh, OneRefreshAfterAllSitesMatchesOracle) {
  // The synthesizer's pattern: the engine syncs with the saturated graph
  // (as a snapshot capture does), every fold site inserts, and one
  // refresh then walks the whole round's dirty log.
  FoldSiteFixture F;
  static const AstSizeCost Cost;
  KBestExtractor Engine(F.G, Cost, 5);
  for (size_t I = 0; I < F.Sites.size(); ++I)
    F.insertSite(I);
  Engine.refresh();
  expectKBestMatchesOracle(F.G, Engine, 5, "after all sites");
}

//===----------------------------------------------------------------------===//
// Dedup-aware determinization and module reporting
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, DeterminizeReportsUniqueElements) {
  EGraph G;
  TermPtr Elem = identicalCube();
  EClassId DupList = G.addTerm(tList({Elem, Elem, Elem}));
  EClassId DistinctList = G.addTerm(tList({tTranslate(1, 0, 0, tUnit()),
                                           tTranslate(2, 0, 0, tUnit()),
                                           tTranslate(3, 0, 0, tUnit())}));
  G.rebuild();

  std::vector<ChainDecomposition> Dup = determinize(G, DupList);
  ASSERT_FALSE(Dup.empty());
  EXPECT_EQ(Dup[0].numElements(), 3u);
  EXPECT_EQ(Dup[0].UniqueElements, 1u);

  std::vector<ChainDecomposition> Distinct = determinize(G, DistinctList);
  ASSERT_FALSE(Distinct.empty());
  EXPECT_EQ(Distinct[0].numElements(), 3u);
  EXPECT_EQ(Distinct[0].UniqueElements, 3u);
}

TEST(SolverPipeline, InferenceRecordsCarryModuleAttribution) {
  SynthesisResult R = Synthesizer().synthesize(
      models::modelByName("3362402:gear").FlatCsg);
  ASSERT_FALSE(R.Stats.Records.empty());
  bool SawAny = false;
  for (const InferenceRecord &Rec : R.Stats.Records) {
    for (const std::string &M : Rec.Modules) {
      SawAny = true;
      EXPECT_TRUE(M == "poly" || M == "trig" || M == "linear") << M;
    }
  }
  EXPECT_TRUE(SawAny);
}
