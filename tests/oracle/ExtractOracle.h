//===-- tests/oracle/ExtractOracle.h - Extraction oracles -------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-graph fixed-point oracles for the extraction engines of
/// egraph/Extract.h. They sweep every class until nothing changes, apply
/// the same deterministic tie-breaks, and build real terms, so the
/// differential tests (and bench_extract's cross-checks) can pin the
/// engines bit-for-bit. Test-only: nothing in the shipped library links
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_TESTS_ORACLE_EXTRACTORACLE_H
#define SHRINKRAY_TESTS_ORACLE_EXTRACTORACLE_H

#include "egraph/Extract.h"

#include <limits>

namespace shrinkray {

/// One-best extraction oracle: the naive whole-graph fixed point.
class ReferenceExtractor {
public:
  ReferenceExtractor(const EGraph &G, const CostFn &Fn);

  std::optional<double> bestCost(EClassId Id) const;
  TermPtr extract(EClassId Id) const;
  const ENode *choiceNode(EClassId Id) const;

private:
  const EGraph &G;
  std::unordered_map<EClassId, double> Costs;
  std::unordered_map<EClassId, ENode> Choices;
  mutable std::unordered_map<EClassId, TermPtr> BuildMemo;

  TermPtr build(EClassId Id) const;
};

/// A candidate program of one e-class: cost, term, and the term's
/// value-level hash (termValueHash) used for deduplication.
struct ExtractCandidate {
  double Cost = std::numeric_limits<double>::infinity();
  TermPtr T;
  size_t ValueHash = 0;
};

/// Top-k extraction oracle: whole-graph sweeps in ascending one-best-cost
/// order until no class's candidate list changes. Each sweep recombines a
/// class from its children's current lists (combineClass), so the result
/// is the unique fixpoint the lazy engine has to reach.
class ReferenceKBestExtractor {
public:
  ReferenceKBestExtractor(const EGraph &G, const CostFn &Fn, size_t K);

  std::vector<RankedTerm> extract(EClassId Id) const;

private:
  const EGraph &G;
  const CostFn &Fn;
  size_t K;
  std::vector<EClassId> ClassOrder; ///< ascending one-best cost
  std::unordered_map<EClassId, std::vector<ExtractCandidate>> Table;

  bool pass();
};

} // namespace shrinkray

#endif // SHRINKRAY_TESTS_ORACLE_EXTRACTORACLE_H
