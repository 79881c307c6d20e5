//===-- solvers/Prune.h - Solver pipeline stage 1 ---------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 1 of the solver pipeline: interval pruning. Each test is a cheap
/// *necessary* condition for a family's fit to pass the epsilon-band
/// verification, derived from finite differences of the band constraint
///
///     |f(i) - y_i| <= Band        for all i, Band = eps + 1e-12.
///
/// Soundness (why pruning can never change results):
///
///  - Constant `c`: |c - y_i| <= Band for all i forces
///    max(y) - min(y) <= 2*Band (triangle inequality through c).
///  - Poly1 `b*i + c`: second differences of a line vanish, and the band
///    error contributes at most |1| + |-2| + |1| = 4 band units, so
///    |y_{i+2} - 2 y_{i+1} + y_i| <= 4*Band for every i.
///  - Poly2: third differences of a quadratic vanish; coefficient weights
///    |1| + |-3| + |3| + |-1| = 8 give |Δ³y| <= 8*Band.
///  - Trig at a fixed scan frequency b = 360*m/k: the sinusoid repeats
///    exactly every p = k / gcd(m, k) samples, so |y_i - y_{i+p}| <= 2*Band
///    whenever p <= n-1 (used per-candidate inside the frequency scan).
///  - Trig at any scan frequency b: every sinusoid s(i) = a*sin(b*i + c) + d
///    satisfies s(i+1) - 2cos(b)*s(i) + s(i-1) = 2d(1 - cos b), a constant.
///    With y_i = s(i) + e_i and |e_i| <= Band, the recurrence residual
///    t_i = y_{i+1} - 2cos(b)*y_i + y_{i-1} equals that constant plus an
///    error of weight |1| + |-2cos b| + |1| = 2 + 2|cos b| band units, so
///    max(t) - min(t) <= 2*(2 + 2|cos b|)*Band (also per candidate, checked
///    before the scan builds the candidate's columns). Its slack is four
///    times the usual one: it absorbs the roundoff of computing t_i and
///    cos(b) (a few ulps of max|y|), and the gap between the exact
///    sinusoid and `ClosedForm::evaluate`'s floating-point sin(b*i + c),
///    which verification actually compares against (at most a few ulps of
///    the fit's amplitude and offset, each weighted by at most 4).
///
/// Each bound is checked with a small magnitude-scaled slack on top, so a
/// fit sitting exactly on a bound is never pruned by floating-point
/// roundoff: pruning only rejects sequences that violate the necessary
/// condition outright, i.e. fits that verification would reject anyway.
/// The pruning-soundness differential tests (solver_pipeline_test) check
/// solve results with pruning on vs. off for exact equality.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_PRUNE_H
#define SHRINKRAY_SOLVERS_PRUNE_H

#include "solvers/Pipeline.h"

namespace shrinkray {

/// The verification band for \p Epsilon (shared with verifyForm).
inline double epsilonBand(double Epsilon) { return Epsilon + 1e-12; }

/// The floating-point slack added on top of every pruning bound; scales
/// with the sequence magnitude so large coordinates cannot be pruned by
/// roundoff, yet stays negligible against any real violation.
inline double pruneSlack(const SequenceProfile &P) {
  return 1e-9 * (1.0 + P.MaxAbs);
}

/// Stage 1: the FamilyBit mask of families whose necessary conditions \p P
/// satisfies. Families outside the mask cannot produce a verifying fit.
/// Returns FamAll when pruning is disabled in \p Opts.
unsigned admissibleFamilies(const SequenceProfile &P,
                            const SolverOptions &Opts);

/// Per-candidate trig pruning: true when a sinusoid with integer sample
/// period \p Period (p = k / gcd(m, k) for scan frequency 360*m/k) is still
/// feasible on \p Ys — i.e. the period either exceeds the sample range or
/// every pair of samples one period apart agrees within 2*Band (+ slack).
bool trigPeriodFeasible(const std::vector<double> &Ys, size_t Period,
                        const SequenceProfile &P, const SolverOptions &Opts);

/// Per-candidate trig pruning: true when a sinusoid at scan frequency
/// \p Freq (degrees per sample) may still lie within the band of \p Ys —
/// i.e. the range of the recurrence residuals
/// y_{i+1} - 2cos(Freq)*y_i + y_{i-1} is at most 2*(2 + 2|cos Freq|)*Band
/// (+ slack). Sequences shorter than three samples carry no constraint.
bool trigRecurrenceFeasible(const std::vector<double> &Ys, double Freq,
                            const SequenceProfile &P,
                            const SolverOptions &Opts);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_PRUNE_H
