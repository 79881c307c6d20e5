//===-- solvers/TrigModule.cpp - Sinusoid fitting module ------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frequency-scan sinusoid solver (paper Sec. 4.1): for each candidate
/// frequency b = 360*m/k the model a*sin(b i + c) + d is linear in
/// (P, Q, d), so a scan plus linear least squares replaces iterative SVD
/// refinement. Additions over the pre-pipeline fitTrig: two sound
/// necessary conditions (see Prune.h) prune candidates before their columns
/// are built — the exact sample period must repeat within the band, and
/// the sinusoid recurrence y_{i+1} - 2cos(b) y_i + y_{i-1} must be constant
/// within the band — so only frequencies whose fit can verify pay for the
/// least-squares solve. The scan reuses the stage-0 profile the pipeline
/// already computed, and the cancellation token is checked as it
/// progresses.
///
//===----------------------------------------------------------------------===//

#include "solvers/TrigModule.h"

#include "linalg/Matrix.h"
#include "linalg/Vec3.h"
#include "solvers/Prune.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace shrinkray;

std::optional<ClosedForm>
shrinkray::fitTrigForm(const std::vector<double> &Ys,
                       const SolverOptions &Opts) {
  return fitTrigForm(Ys, sequenceProfile(Ys), Opts);
}

std::optional<ClosedForm>
shrinkray::fitTrigForm(const std::vector<double> &Ys,
                       const SequenceProfile &Profile,
                       const SolverOptions &Opts) {
  const size_t N = Ys.size();
  // The model has three free parameters (amplitude, phase, offset), so any
  // three points admit an exact "fit"; require a fourth witness point.
  if (N < 4)
    return std::nullopt;

  // Candidate frequencies: b = 360 * m / k covers sequences periodic in k
  // samples with m-fold winding; this is exactly the structure CAD designs
  // exhibit (points placed around circles). Each candidate's exact integer
  // sample period is k / gcd(m, k) — the handle for stage-1 pruning.
  struct Candidate {
    double Freq;
    size_t Period;
  };
  std::vector<Candidate> Candidates;
  for (size_t K = 2; K <= 2 * N; ++K)
    for (size_t M = 1; M <= 3; ++M) {
      double B = 360.0 * static_cast<double>(M) / static_cast<double>(K);
      if (B < 360.0)
        Candidates.push_back({B, K / std::gcd(M, K)});
    }
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.Freq < B.Freq;
            });
  // Equal frequencies are equal reduced fractions, hence equal periods.
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end(),
                               [](const Candidate &A, const Candidate &B) {
                                 return A.Freq == B.Freq;
                               }),
                   Candidates.end());

  std::optional<ClosedForm> Best;
  size_t Scanned = 0;
  for (const Candidate &Cand : Candidates) {
    // A long scan is the solver's dominant cost on big lists; poll the
    // cancel token every few candidates and return the best-so-far.
    if ((Scanned++ % 8 == 0) && Opts.Cancel.cancelled())
      break;
    // Stage-1, per frequency: a sinusoid at this frequency repeats exactly
    // every Period samples, so sample pairs one period apart must already
    // agree within the band for any fit to verify.
    if (!trigPeriodFeasible(Ys, Cand.Period, Profile, Opts))
      continue;
    // Stage-1, per frequency: any sinusoid at b satisfies
    // s(i+1) - 2cos(b) s(i) + s(i-1) = const, so the data's recurrence
    // residuals must agree within the band for any fit to verify.
    const double Freq = Cand.Freq;
    if (!trigRecurrenceFeasible(Ys, Freq, Profile, Opts))
      continue;
    // a*sin(b i + c) + d = P*sin(b i) + Q*cos(b i) + d: linear in
    // (P, Q, d). The offset column makes Figure 19's `10 + 7.07*sin(...)`
    // expressible. At some frequencies one sinusoid column vanishes on the
    // integer grid (e.g. sin(180 i) == 0 for all i), which would make the
    // system rank deficient — fit only the non-degenerate columns.
    std::vector<double> SinCol(N), CosCol(N), B(N);
    double SinNorm = 0.0, CosNorm = 0.0;
    for (size_t I = 0; I < N; ++I) {
      double Angle = degToRad(Freq * static_cast<double>(I));
      SinCol[I] = std::sin(Angle);
      CosCol[I] = std::cos(Angle);
      SinNorm += SinCol[I] * SinCol[I];
      CosNorm += CosCol[I] * CosCol[I];
      B[I] = Ys[I];
    }
    bool UseSin = SinNorm > 1e-9, UseCos = CosNorm > 1e-9;
    if (!UseSin && !UseCos)
      continue;
    size_t Cols = (UseSin ? 1 : 0) + (UseCos ? 1 : 0) + 1;
    if (N < Cols)
      continue;
    Matrix A(N, Cols);
    for (size_t I = 0; I < N; ++I) {
      size_t Col = 0;
      if (UseSin)
        A.at(I, Col++) = SinCol[I];
      if (UseCos)
        A.at(I, Col++) = CosCol[I];
      A.at(I, Col) = 1.0; // offset column
    }
    std::optional<std::vector<double>> X = leastSquares(A, B);
    if (!X)
      continue;
    size_t Col = 0;
    double P = UseSin ? (*X)[Col++] : 0.0;
    double Q = UseCos ? (*X)[Col++] : 0.0;
    double Offset = (*X)[Col];
    double Amp = std::hypot(P, Q);
    if (Amp < 1e-9)
      continue; // constant data belongs to the polynomial classes
    double PhaseDeg = std::atan2(Q, P) * 180.0 / 3.14159265358979323846;
    if (PhaseDeg < 0)
      PhaseDeg += 360.0;

    ClosedForm Form;
    Form.Kind = FormKind::Trig;
    Form.Module = "trig";
    Form.A = Amp;
    Form.B = Freq;
    Form.C = PhaseDeg;
    Form.D = Offset;
    Form.R2 = formR2(Form, Ys);
    if (Form.R2 < Opts.TrigR2Floor || !verifyForm(Form, Ys, Opts.Epsilon))
      continue;

    // Nice the amplitude, phase, and offset where the band allows it.
    [&] {
      for (double NiceAmp : niceCandidates(Amp, Opts))
        for (double NicePhase : niceCandidates(PhaseDeg, Opts))
          for (double NiceOffset : niceCandidates(Offset, Opts)) {
            ClosedForm Snapped = Form;
            Snapped.A = NiceAmp;
            Snapped.C = NicePhase;
            Snapped.D = NiceOffset;
            if (verifyForm(Snapped, Ys, Opts.Epsilon)) {
              Snapped.R2 = formR2(Snapped, Ys);
              Form = Snapped;
              return;
            }
          }
    }();
    if (!Best || Form.R2 > Best->R2)
      Best = Form;
  }
  return Best;
}

std::optional<ClosedForm> TrigModule::fitFamily(const SolveContext &Ctx,
                                                unsigned Family) const {
  (void)Family;
  return fitTrigForm(Ctx.Ys, Ctx.Profile, Ctx.Opts);
}
