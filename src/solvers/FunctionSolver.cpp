//===-- solvers/FunctionSolver.cpp - Arithmetic function inference --------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facade's remaining bodies: the per-sequence entry points delegate to
/// the staged SolverPipeline (PolyModule / TrigModule); the multi-index
/// linear fit used by nested-loop inference lives here, sharing the same
/// nicing and band-verification helpers as the modules.
///
//===----------------------------------------------------------------------===//

#include "solvers/FunctionSolver.h"

#include "linalg/Matrix.h"
#include "solvers/PolyModule.h"
#include "solvers/TrigModule.h"

#include <cassert>
#include <cmath>

using namespace shrinkray;

std::optional<ClosedForm> FunctionSolver::fitPoly(const std::vector<double> &Ys,
                                                  int Degree) const {
  return fitPolyForm(Ys, Degree, options());
}

std::optional<ClosedForm>
FunctionSolver::fitTrig(const std::vector<double> &Ys) const {
  return fitTrigForm(Ys, options());
}

std::optional<std::vector<double>>
FunctionSolver::fitLinearN(const std::vector<std::vector<double>> &Indices,
                           const std::vector<double> &Ys) const {
  assert(Indices.size() == Ys.size() && "index/value size mismatch");
  const SolverOptions &Opts = options();
  const size_t N = Ys.size();
  if (N == 0)
    return std::nullopt;
  const size_t K = Indices[0].size();
  if (N < K + 1)
    return std::nullopt;

  Matrix A(N, K + 1);
  std::vector<double> B(N);
  for (size_t I = 0; I < N; ++I) {
    assert(Indices[I].size() == K && "ragged index matrix");
    A.at(I, 0) = 1.0;
    for (size_t J = 0; J < K; ++J)
      A.at(I, J + 1) = Indices[I][J];
    B[I] = Ys[I];
  }
  std::optional<std::vector<double>> Raw = leastSquares(A, B);
  if (!Raw)
    return std::nullopt;

  auto verifyN = [&](const std::vector<double> &Coef) {
    const double Band = Opts.Epsilon + 1e-12;
    for (size_t I = 0; I < N; ++I) {
      double Fit = Coef[0];
      for (size_t J = 0; J < K; ++J)
        Fit += Coef[J + 1] * Indices[I][J];
      if (std::fabs(Fit - Ys[I]) > Band)
        return false;
    }
    return true;
  };

  // Nice each coefficient independently (the combinatorial sweep used for
  // low arities would explode here), then fall back to raw.
  std::vector<double> Niced = *Raw;
  for (double &Coef : Niced) {
    for (double Candidate : niceCandidates(Coef, Opts)) {
      double Saved = Coef;
      Coef = Candidate;
      if (verifyN(Niced))
        break;
      Coef = Saved;
    }
  }
  if (verifyN(Niced))
    return Niced;
  if (verifyN(*Raw))
    return Raw;
  return std::nullopt;
}

int64_t shrinkray::rotationPeriod(const ClosedForm &Form, double Tolerance) {
  if (Form.Kind != FormKind::Poly1 || Form.B == 0.0)
    return 0;
  double Period = 360.0 / Form.B;
  double Rounded = std::round(Period);
  if (Rounded < 2.0 || std::fabs(Period - Rounded) > Tolerance)
    return 0;
  return static_cast<int64_t>(Rounded);
}
