//===-- synth/Inference.h - Function and loop inference ---------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic component of the pipeline (paper Sec. 4 and 5): given a
/// determinized fold list, query the function solvers for closed forms over
/// the transform vectors and insert the equivalent Mapi / nested-Fold
/// programs back into the e-graph, merged into the list's e-class.
///
/// Function inference (Sec. 4) produces
///     Mapi (Fun (i, c) -> T(f(i), c), ... Repeat(base, n))
/// with one Mapi per affine layer (Figure 10). Loop inference (Sec. 5)
/// m-factorizes the list length and finds multi-index closed forms,
/// producing nested Folds over index lists (Figures 14 and 17); an
/// irregular-grid fallback groups elements by a shared coordinate.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SYNTH_INFERENCE_H
#define SHRINKRAY_SYNTH_INFERENCE_H

#include "solvers/FunctionSolver.h"
#include "synth/Determinize.h"

#include <string>

namespace shrinkray {

/// What one inference insertion produced (for reporting; Table 1 columns).
struct InferenceRecord {
  enum class Kind { Mapi, NestedFold, IrregularFold } K = Kind::Mapi;
  std::vector<int64_t> Bounds;       ///< loop bounds, outermost first
  std::vector<FormKind> Forms;       ///< closed-form classes used
  /// The solver-pipeline modules whose fits drove this insertion ("poly",
  /// "trig", "linear"), unique in first-use order (ClosedForm::Module).
  std::vector<std::string> Modules;
  std::string Description;           ///< human-readable summary

  /// Table 1 "n-l" notation, e.g. "n1,60" or "n2,3,5".
  std::string loopNotation() const;
  /// Table 1 "f" notation, e.g. "d1" / "d2" / "theta" (joined unique).
  std::string formNotation() const;
};

/// Adds the arithmetic e-nodes of \p F over the index class \p Index and
/// returns the expression's class (e.g. `2*i + 2`). Integral coefficients
/// become Int literals, multiplications by 1 and additions of 0 are
/// elided, and negative constants fold into a Sub.
///
/// \p RotationPeriod, when nonzero, renders a Poly1 form with slope
/// 360/RotationPeriod as `360 * i / RotationPeriod (+ phase)`, or
/// `360 * (i+1) / RotationPeriod` when the phase is one step — the paper's
/// rotation heuristic (Sec. 4.1 "Rotation").
EClassId addClosedForm(EGraph &G, const ClosedForm &F, EClassId Index,
                       int64_t RotationPeriod = 0);

/// Function inference (Sec. 4): solves every affine layer of \p D and, on
/// success, merges the nested-Mapi program into \p ListClass. When layers
/// admit both polynomial and trigonometric forms, one variant per family is
/// inserted (diversity, Sec. 6.3). Returns the records of inserted programs.
std::vector<InferenceRecord> inferFunctions(EGraph &G, EClassId ListClass,
                                            const ChainDecomposition &D,
                                            const FunctionSolver &Solver);

/// Loop inference (Sec. 5): m-factorizes the list length (m = 2, 3) and
/// searches multi-index closed forms for the outermost layer; on success
/// merges the nested-Fold program into \p ListClass. Requires all inner
/// layers to be element-invariant (the nested solid must be shared).
std::vector<InferenceRecord> inferLoops(EGraph &G, EClassId ListClass,
                                        const ChainDecomposition &D,
                                        const FunctionSolver &Solver);

/// Irregular-loop inference (Sec. 5 "Irregular loops"): groups elements by
/// their leading coordinate and finds a per-group closed form for the rest,
/// producing a Concat of per-group Mapi lists. \p D must already be sorted
/// (list manipulation runs first). Returns the inserted records.
std::vector<InferenceRecord> inferIrregular(EGraph &G, EClassId ListClass,
                                            const ChainDecomposition &D,
                                            const FunctionSolver &Solver);

} // namespace shrinkray

#endif // SHRINKRAY_SYNTH_INFERENCE_H
