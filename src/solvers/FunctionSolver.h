//===-- solvers/FunctionSolver.h - Arithmetic function inference -*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic component of ShrinkRay (paper Sec. 4.1): given the scalar
/// sequence of one vector component across a determinized list, find a
/// closed form within the epsilon tolerance band
///
///     (f(i)) - eps <= y_i <= (f(i)) + eps        (eps = 0.001)
///
/// for f among degree-1/degree-2 polynomials and sinusoids a*sin(b*i + c).
///
/// The paper solves the polynomial band constraints with Z3 over nonlinear
/// reals; Z3 is not available offline, so this implementation substitutes a
/// complete decision procedure for this query class: least-squares fitting
/// (which minimizes L2 error), followed by intercept centering (which
/// minimizes the L-infinity error over the intercept, the binding
/// coefficient), rational "nicing" of coefficients toward editable values,
/// and a final verification that every point lies inside the band. The trig
/// solver mirrors the paper's nonlinear regression: for each candidate
/// frequency b the model a*sin(b*i + c) = A*sin(bi) + B*cos(bi) is linear in
/// (A, B), so a frequency scan plus linear least squares replaces iterative
/// SVD refinement; fits are ranked by R^2 exactly as in the paper.
///
/// FunctionSolver is a facade over the staged SolverPipeline (Pipeline.h):
/// stage 0 profiles each sequence, stage 1 prunes closed-form families via
/// sound interval tests, stage 2 runs the fits above as PolyModule /
/// TrigModule. The per-sequence entry points delegate to the pipeline; the
/// multi-index linear fits (nested-loop inference) remain here. breakdown()
/// exposes the accumulated per-stage wall clock.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H
#define SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H

#include "solvers/Pipeline.h"

#include <optional>
#include <vector>

namespace shrinkray {

/// Arithmetic function solver over scalar sequences.
class FunctionSolver {
public:
  explicit FunctionSolver(SolverOptions Opts = {}) : Pipe(std::move(Opts)) {}

  /// Finds the best closed form for y_0..y_{n-1} as a function of the index,
  /// or nullopt when no candidate passes the epsilon band. Preference order
  /// on ties: Constant, Poly1, Poly2, Trig (simplest editable form wins;
  /// among passing forms they all satisfy the band, and the paper's R^2
  /// criterion then cannot distinguish them).
  std::optional<ClosedForm> solveSequence(const std::vector<double> &Ys) const {
    return Pipe.solveSequence(Ys);
  }

  /// All passing closed forms, simplest first. Periodic data of short
  /// sequences can be aliased by a polynomial and vice versa; returning
  /// every verified form lets the e-graph represent all of them so that
  /// top-k extraction can surface diverse parameterizations (paper Sec. 6.3,
  /// the hex-cell generator has both a loop and a trig solution).
  std::vector<ClosedForm> solveAll(const std::vector<double> &Ys) const {
    return Pipe.solveAll(Ys);
  }

  /// Degree-\p Degree polynomial fit (0, 1, or 2) with nicing; returns a
  /// verified form or nullopt. Bypasses the stage-1 pruning (direct module
  /// entry).
  std::optional<ClosedForm> fitPoly(const std::vector<double> &Ys,
                                    int Degree) const;

  /// Sinusoid fit a*sin(b*i + c) via frequency scan; returns a verified
  /// form (also satisfying the R^2 floor) or nullopt.
  std::optional<ClosedForm> fitTrig(const std::vector<double> &Ys) const;

  /// K-index linear fit y = c + sum_k a_k * idx_k. \p Indices[i] holds the
  /// K index coordinates of sample i. Returns [c, a_1, ..., a_K] verified
  /// against the epsilon band, or nullopt (also when an index column is
  /// rank-deficient). Nested-loop inference fits its 2- and 3-index grids
  /// with it.
  std::optional<std::vector<double>>
  fitLinearN(const std::vector<std::vector<double>> &Indices,
             const std::vector<double> &Ys) const;

  /// True iff \p Form reproduces every y_i within epsilon.
  bool verify(const ClosedForm &Form, const std::vector<double> &Ys) const {
    return verifyForm(Form, Ys, options().Epsilon);
  }

  const SolverOptions &options() const { return Pipe.options(); }

  /// Accumulated per-stage solve telemetry (see SolveBreakdown).
  const SolveBreakdown &breakdown() const { return Pipe.breakdown(); }

  /// The underlying staged pipeline.
  const SolverPipeline &pipeline() const { return Pipe; }

private:
  SolverPipeline Pipe;
};

/// Detects the rotation-periodicity of a linear form: if the slope divides
/// 360 into an integer count (within tolerance), returns that count (e.g.
/// slope 6 -> 60 teeth); otherwise 0. Paper Sec. 4.1 "Rotation".
int64_t rotationPeriod(const ClosedForm &Form, double Tolerance = 1e-6);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H
