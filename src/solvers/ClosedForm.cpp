//===-- solvers/ClosedForm.cpp - Fitted closed-form functions -------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of fitted closed forms (paper Sec. 4.1): evaluation for
/// epsilon-band verification and report rendering.
///
//===----------------------------------------------------------------------===//

#include "solvers/ClosedForm.h"

#include "cad/Sexp.h"
#include "linalg/Vec3.h"

#include <cmath>
#include <sstream>

using namespace shrinkray;

double ClosedForm::evaluate(double I) const {
  switch (Kind) {
  case FormKind::Constant:
    return C;
  case FormKind::Poly1:
    return B * I + C;
  case FormKind::Poly2:
    return A * I * I + B * I + C;
  case FormKind::Trig:
    return A * std::sin(degToRad(B * I + C)) + D;
  }
  assert(false && "unknown form kind");
  return 0.0;
}

bool shrinkray::isIntegral(double V) {
  return V == std::floor(V) && std::fabs(V) < 1e15;
}

std::string ClosedForm::str() const {
  std::ostringstream Os;
  auto num = [&](double V) {
    if (isIntegral(V))
      Os << static_cast<int64_t>(V);
    else
      Os << formatFloat(V);
  };
  switch (Kind) {
  case FormKind::Constant:
    num(C);
    break;
  case FormKind::Poly1:
    num(B);
    Os << "*i + ";
    num(C);
    break;
  case FormKind::Poly2:
    num(A);
    Os << "*i^2 + ";
    num(B);
    Os << "*i + ";
    num(C);
    break;
  case FormKind::Trig:
    num(A);
    Os << "*sin(";
    num(B);
    Os << "*i + ";
    num(C);
    Os << ")";
    if (D != 0.0) {
      Os << " + ";
      num(D);
    }
    break;
  }
  return Os.str();
}

std::string_view ClosedForm::tableClass() const {
  switch (Kind) {
  case FormKind::Constant:
  case FormKind::Poly1:
    return "d1";
  case FormKind::Poly2:
    return "d2";
  case FormKind::Trig:
    return "theta";
  }
  assert(false && "unknown form kind");
  return "";
}
