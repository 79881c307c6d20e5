//===-- solvers/ClosedForm.h - Fitted closed-form functions -----*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed forms inferred by the function solvers (paper Sec. 4.1): degree-1
/// and degree-2 polynomials in the list index, and sinusoids a*sin(b*i + c).
/// A closed form evaluates itself for epsilon-band verification; inference
/// adds it to the e-graph as arithmetic over the loop index (addClosedForm
/// in synth/Inference.h).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_CLOSEDFORM_H
#define SHRINKRAY_SOLVERS_CLOSEDFORM_H

#include <string>
#include <string_view>

namespace shrinkray {

/// The function classes the solver searches (paper Sec. 4.1).
enum class FormKind {
  Constant, ///< c
  Poly1,    ///< b*i + c
  Poly2,    ///< a*i^2 + b*i + c
  Trig,     ///< a*sin(b*i + c) + d, angles in degrees
};

/// A fitted scalar closed form y(i).
struct ClosedForm {
  FormKind Kind = FormKind::Constant;
  /// Coefficients; meaning depends on Kind (A is the leading/amplitude
  /// coefficient, B the linear/frequency one, C the constant/phase, and D
  /// the additive offset of a sinusoid — Figure 19's `10 + 7.07*sin(...)`).
  double A = 0.0, B = 0.0, C = 0.0, D = 0.0;
  /// Coefficient of determination of the fit on its defining data.
  double R2 = 1.0;
  /// The solver-pipeline module that produced the fit ("poly", "trig",
  /// "linear" for the multi-index fits); empty for hand-built forms.
  /// Reported through InferenceRecord so Table 1 rows are attributable
  /// to a module.
  const char *Module = "";

  double evaluate(double I) const;

  /// Human-readable rendering for reports, e.g. "6*i + 6".
  std::string str() const;

  /// The `f` column classification of Table 1: "d1", "d2", or "theta".
  std::string_view tableClass() const;
};

/// True iff \p V is written as an integer literal: integral and below
/// 1e15 in magnitude.
bool isIntegral(double V);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_CLOSEDFORM_H
