//===-- rewrites/Rules.h - The CAD rewrite rule database --------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantics-preserving syntactic rewrites of paper Sec. 3.2 (Figure 8),
/// grouped into the paper's four categories plus the standard boolean-
/// operator laws. Rules are exported in groups so callers can assemble the
/// exact set they need; `pipelineRules()` is the set the synthesizer runs.
///
/// Two deliberate strengthenings over the paper's presentation (documented
/// in DESIGN.md):
///  * Rotate/Translate reordering is implemented for arbitrary Euler angles
///    by computing the rotated offset numerically (the paper's per-axis
///    closed forms are special cases; the identity
///    Rotate(r, Translate(v, c)) == Translate(R_r v, Rotate(r, c)) is exact
///    for every rotation). The printed per-axis forms in the arXiv draft
///    contain typographical `atan` artifacts; we use the underlying matrix
///    identity that the authors state the rules were derived from. The
///    computed offset is rounded onto a 1e-9 grid, so that reordering
///    there and back lands on the original literals and saturation
///    reaches a fixpoint (docs/ARCHITECTURE.md).
///  * Fold extension handles union trees of any association via
///    Concat-normalization rules rather than relying on associativity
///    saturation, which keeps the e-graph small on long union chains.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_REWRITES_RULES_H
#define SHRINKRAY_REWRITES_RULES_H

#include "egraph/Rewrite.h"

#include <vector>

namespace shrinkray {

/// Figure 8a: T(c) o T(c') ~> T(c o c') for every boolean operator o and
/// affine transformation T (9 rules).
std::vector<Rewrite> liftingRules();

/// Figure 8b: reordering nested affine transformations of different types
/// (uniform-scale/rotate, scale/translate both ways, rotate/translate both
/// ways for arbitrary constant angles).
std::vector<Rewrite> reorderRules();

/// Figure 8c: collapsing nested same-type affine transformations
/// (translate/translate, scale/scale, same-axis rotate/rotate).
std::vector<Rewrite> collapseRules();

/// Figure 8d: introducing and extending Folds over Union, plus the
/// Concat-normalization rules that keep fold lists as pure Cons spines.
std::vector<Rewrite> foldRules();

/// Standard boolean-operator properties: identity under Empty, idempotence,
/// Diff-of-Diff, and (separately flagged) commutativity and associativity.
/// The pipeline omits both flags: fold-cons-left covers left-nested unions
/// and Concat normalization covers mixed nests, while commutativity floods
/// top-k extraction with permutation variants of equal cost.
std::vector<Rewrite> booleanRules(bool IncludeAssociativity = false,
                                  bool IncludeCommutativity = true);

/// Affine identity elimination: Translate(0,0,0,c) ~> c, Scale(1,1,1,c) ~> c,
/// Rotate(0,0,0,c) ~> c.
std::vector<Rewrite> identityRules();

/// LambdaCAD list/combinator algebra: Fold over Nil or singleton lists,
/// Repeat(x, 0), Cons(x, Repeat(x, n)) == Repeat(x, n+1), Concat with Nil.
/// These clean up solver-inserted structure and enable Repeat growth.
std::vector<Rewrite> listAlgebraRules();

/// The rule set the synthesizer runs (everything except associativity,
/// which the Concat normalization makes redundant for fold discovery and
/// which explodes the graph on long chains).
std::vector<Rewrite> pipelineRules();

/// Every rule, including associativity. Used by the soundness test suite.
std::vector<Rewrite> allRewrites();

} // namespace shrinkray

#endif // SHRINKRAY_REWRITES_RULES_H
