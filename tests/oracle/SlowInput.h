//===-- tests/oracle/SlowInput.h - A job that runs for seconds --*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A synthesis input that keeps a worker busy for over a second, for the
/// service and server tests that park a worker on a running job and then
/// race it (timeouts, queue-full rejections, cancelling queued work).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_TESTS_ORACLE_SLOWINPUT_H
#define SHRINKRAY_TESTS_ORACLE_SLOWINPUT_H

#include "cad/Term.h"
#include "support/Rng.h"

namespace shrinkray {

/// A right Union chain of 900 unit cubes, each under its own random Rotate,
/// Translate and Scale. Saturation settles in a few iterations, but no
/// list of it fits a closed form, so the solver tries every suffix of the
/// spine up to SynthesisOptions::MaxFoldSites (256 sites, ~150k e-nodes):
/// about 1.6 s in Release on a 4-core x86 VM. A regular input would not
/// do: a chain or gear of any length saturates in a few iterations and
/// solves in milliseconds. Its text form nests 904 deep, inside
/// kMaxSourceDepth, so it also travels as a submit source.
inline TermPtr slowIrregularChain() {
  Rng R(1);
  std::vector<TermPtr> Cubes;
  for (int I = 0; I < 900; ++I) {
    double A = R.nextDouble(0, 360), B = R.nextDouble(0, 360),
           C = R.nextDouble(0, 360);
    double X = R.nextDouble(-100, 100), Y = R.nextDouble(-100, 100),
           Z = R.nextDouble(-100, 100);
    double S1 = R.nextDouble(1, 10), S2 = R.nextDouble(1, 10),
           S3 = R.nextDouble(1, 10);
    Cubes.push_back(
        tRotate(A, B, C, tTranslate(X, Y, Z, tScale(S1, S2, S3, tUnit()))));
  }
  return tUnionAll(Cubes);
}

} // namespace shrinkray

#endif // SHRINKRAY_TESTS_ORACLE_SLOWINPUT_H
