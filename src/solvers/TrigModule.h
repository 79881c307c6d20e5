//===-- solvers/TrigModule.h - Sinusoid fitting module ----------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage-2 module for the trigonometric family: the frequency-scan
/// sinusoid solver a*sin(b*i + c) + d, ranked by R^2 (paper Sec. 4.1) —
/// the code previously inlined in FunctionSolver::fitTrig, now behind the
/// SolverModule interface with per-frequency stage-1 pruning
/// (Prune.h: trigPeriodFeasible, trigRecurrenceFeasible) and cancellation
/// checks inside the scan.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_TRIGMODULE_H
#define SHRINKRAY_SOLVERS_TRIGMODULE_H

#include "solvers/Pipeline.h"

namespace shrinkray {

/// Frequency-scan sinusoid module.
class TrigModule : public SolverModule {
public:
  const char *name() const override { return "trig"; }
  unsigned families() const override { return FamTrig; }
  std::optional<ClosedForm> fitFamily(const SolveContext &Ctx,
                                      unsigned Family) const override;
};

/// Sinusoid fit via frequency scan; returns a verified form (also
/// satisfying the R^2 floor) or nullopt. Direct entry point for
/// FunctionSolver::fitTrig and the tests. Honors Opts.Cancel: a fired
/// token stops the scan and returns the best form found so far (or
/// nullopt when none was).
std::optional<ClosedForm> fitTrigForm(const std::vector<double> &Ys,
                                      const SolverOptions &Opts);

/// fitTrigForm with the stage-0 profile of \p Ys already computed (the
/// pipeline's TrigModule passes SolveContext::Profile).
std::optional<ClosedForm> fitTrigForm(const std::vector<double> &Ys,
                                      const SequenceProfile &Profile,
                                      const SolverOptions &Opts);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_TRIGMODULE_H
