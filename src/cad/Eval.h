//===-- cad/Eval.h - LambdaCAD evaluator / flattener ------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates LambdaCAD programs down to flat CSG. This is the "translator
/// that flattens" from the paper's evaluation (Sec. 6.1): structured models
/// with Fold/Mapi/Repeat are unrolled into loop-free CSG. It is also the
/// verification half of the pipeline (Sec. 7 translation validation): a
/// synthesized program is correct iff flattening it reproduces the input's
/// geometry.
///
/// Semantics notes (matching the paper's figures):
///  * `Fold(op, init, list)` with a boolean OpRef right-folds the operator.
///  * `Fold(f, init, list)` with a unary Fun flat-maps: each element is
///    passed to f and the resulting lists/values are concatenated onto init
///    (this is how Figures 14/17 build lists of CADs from index lists).
///  * `Mapi(f, list)` passes (index, element) to a two-parameter Fun.
///  * Trigonometric functions take degrees.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_CAD_EVAL_H
#define SHRINKRAY_CAD_EVAL_H

#include "cad/Term.h"

#include <string>

namespace shrinkray {

/// Result of evaluation: a flat CSG term or a diagnostic.
struct EvalResult {
  TermPtr Value;     ///< non-null on success; guaranteed isFlatCsg()
  std::string Error; ///< diagnostic on failure

  explicit operator bool() const { return Value != nullptr; }
};

/// Evaluates \p Program to flat CSG.
///
/// \p FuelLimit bounds the number of evaluation steps so malformed inputs
/// (e.g. unbounded recursion through App) terminate with an error. A
/// result deeper than kMaxSourceDepth (cad/Sexp.h) fails with the parsers'
/// "nesting deeper than" diagnostic: a short Fold over a long Repeat
/// flattens into a Union spine as long as the repeat count.
EvalResult evalToFlatCsg(const TermPtr &Program, uint64_t FuelLimit = 1u << 22);

} // namespace shrinkray

#endif // SHRINKRAY_CAD_EVAL_H
