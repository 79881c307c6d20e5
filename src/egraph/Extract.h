//===-- egraph/Extract.h - Cost-based extraction ----------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the best (and top-k best) programs from a saturated e-graph
/// under a user-supplied cost function (paper Sec. 5.1). Costs may depend
/// recursively on argument costs; both the default AST-size cost and the
/// `reward-loops` variant from the evaluation live in synth/Cost.h.
///
/// The engines are *worklist-driven* rather than whole-graph fixed points
/// (egg treats extraction as a one-pass analysis propagated along parent
/// edges; E-morphic bounds k-best state per class):
///
///  * `Extractor` seeds per-class one-best costs from leaf e-nodes and
///    relaxes parent e-nodes through EGraph::canonicalParents until no
///    (cost, choice) pair improves — work proportional to the number of
///    cost improvements, not to (classes x passes).
///  * `KBestExtractor` keeps, per class, a bounded list of up to k distinct
///    candidate programs and recomputes a class only when a child's list
///    changed, enumerating child-candidate combinations lazily through a
///    best-first frontier heap (k-shortest-paths style "cube pruning").
///  * Both engines are incremental across graph mutations: refresh() keys
///    cached costs on the e-graph's generation-stamped dirty log
///    (EGraph::takeDirtySince) and re-derives only classes whose best
///    programs could have changed, so re-extraction after a saturation
///    round costs time proportional to what the round changed.
///
/// Cost ties are broken deterministically (smallest e-node under a fixed
/// total order wins), which makes extraction a pure function of the graph:
/// the worklist engines are bit-identical to the `ReferenceExtractor` /
/// `ReferenceKBestExtractor` fixed-point oracles kept below for
/// differential testing (the `matchClassReference` pattern from the
/// e-matching engine).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_EXTRACT_H
#define SHRINKRAY_EGRAPH_EXTRACT_H

#include "egraph/EGraph.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace shrinkray {

/// A cost function over operators and already-computed child costs.
class CostFn {
public:
  virtual ~CostFn() = default;

  /// Cost of a node with operator \p O whose children cost \p ChildCosts.
  /// Must be monotone: not smaller than any child cost (this guarantees
  /// extraction terminates on cyclic e-graphs).
  virtual double cost(const Op &O,
                      const std::vector<double> &ChildCosts) const = 0;
};

/// The paper's default cost: number of AST nodes. Float literals carry an
/// infinitesimal surcharge so that, among value-equal programs, extraction
/// deterministically prefers integer spellings (as the paper's figures do).
class AstSizeCost : public CostFn {
public:
  double cost(const Op &O, const std::vector<double> &ChildCosts) const final {
    double Sum = O.kind() == OpKind::Float ? 1.0 + 1e-9 : 1.0;
    for (double C : ChildCosts)
      Sum += C;
    return Sum;
  }
};

/// AST-depth cost: extracts the shallowest program (a secondary metric the
/// evaluation reports; max of child costs plus one).
class AstDepthCost : public CostFn {
public:
  double cost(const Op &, const std::vector<double> &ChildCosts) const final {
    double Max = 0.0;
    for (double C : ChildCosts)
      Max = std::max(Max, C);
    return Max + 1.0;
  }
};

/// One-best extraction: computes, per class, the cheapest representable
/// term by worklist relaxation along the parent index. Construction runs a
/// full derivation; refresh() incrementally re-derives after mutations.
class Extractor {
public:
  Extractor(const EGraph &G, const CostFn &Fn);

  /// Releases the engine's dirty-log lease (see below). The engine must
  /// not outlive the graph.
  ~Extractor();

  // The engine registers a dirty-log lease with the graph (so the
  // Runner's log compaction preserves the suffix refresh() will read);
  // copying would double-release it.
  Extractor(const Extractor &) = delete;
  Extractor &operator=(const Extractor &) = delete;

  /// Re-derives costs after graph mutations (merges, added nodes, analysis
  /// changes) at cost proportional to the dirty closure since the last
  /// derivation. Requires a clean graph. Equivalent to rebuilding the
  /// extractor from scratch, but incremental. Also compacts the cost
  /// tables when merges have left them dominated by superseded
  /// (non-canonical) keys — long-lived sessions would otherwise grow them
  /// without bound.
  void refresh();

  /// Rows currently held by the cost table, stale keys included (tests
  /// assert bounded growth across long sessions).
  size_t tableEntries() const { return CostsLive; }

  /// Cheapest cost of any term in the class, if one is extractable.
  std::optional<double> bestCost(EClassId Id) const;

  /// The cheapest term of the class. Asserts that one exists.
  TermPtr extract(EClassId Id) const;

  /// The e-node the class extracts through, or nullptr when the class has
  /// no finite cost. The stored form may be stale; canonicalize it before
  /// comparing. Exposed for differential tests.
  const ENode *choiceNode(EClassId Id) const;

private:
  const EGraph &G;
  const CostFn &Fn;
  /// Graph generation the cached costs are synchronized with.
  uint64_t SyncedGen = 0;
  /// Dirty-log lease pinned at SyncedGen (EGraph::acquireDirtyLease).
  uint64_t DirtyLease = 0;
  // Dense cost table indexed by class id (+inf = no finite-cost term
  // derived). nodeCost probes it once per (node, child), which made the
  // hashed map's find() a measurable slice of extraction profiles.
  // Entries keyed by superseded ids are unreachable through find() and
  // simply go stale; CostsLive counts the finite entries (stale
  // included) so refresh() can tell when a compaction sweep pays.
  std::vector<double> Costs;
  size_t CostsLive = 0;
  std::unordered_map<EClassId, ENode> Choices;
  mutable std::unordered_map<EClassId, TermPtr> BuildMemo;
  /// Child-cost scratch reused across relax() calls (one allocation per
  /// derivation instead of one per node visit).
  std::vector<double> KidCostScratch;

  /// Re-derives (cost, choice) for \p Seeds and propagates improvements
  /// upward along canonicalParents to the unique fixpoint.
  void deriveFrom(const std::vector<EClassId> &Seeds);

  /// Evaluates \p Node as a candidate for \p Id; returns true and updates
  /// the tables when it improves the stored (cost, choice) pair.
  bool relax(EClassId Id, const ENode &Node);

  TermPtr build(EClassId Id) const;
};

/// One-best extraction oracle: the naive whole-graph fixed point (sweep all
/// classes until nothing changes), kept verbatim as a differential-test
/// oracle for Extractor. Applies the same deterministic tie-break, so its
/// results are bit-identical to the worklist engine's.
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

/// A term together with its extraction cost.
struct RankedTerm {
  TermPtr T;
  double Cost;
};

/// A candidate program of one e-class: cost, term, and the term's
/// value-level hash (termValueHash) used for O(1)-expected deduplication.
struct ExtractCandidate {
  double Cost = std::numeric_limits<double>::infinity();
  TermPtr T;
  size_t ValueHash = 0;
};

/// Top-k extraction: per class, the k cheapest *distinct* terms (paper
/// Sec. 5.1: ShrinkRay returns the top-k programs so the user can pick the
/// parameterization that suits the edit they want to make). Distinctness is
/// value-level: Int(5) and Float(5.0) respellings do not count as program
/// diversity.
///
/// Worklist-driven: classes are (re)combined in ascending one-best-cost
/// order, and a class is revisited only when a child's candidate list
/// changed. Each recombination enumerates candidates lazily through one
/// bounded best-first heap over all the class's e-nodes, stopping at the
/// k-th distinct program. refresh() makes the table incremental across
/// graph mutations, like Extractor.
///
/// Candidates live in a *flat row store*, not as materialized terms: a row
/// is (operator, child row ids), hashconsed per engine, so a candidate in
/// the table is just (cost, row id) and row-id equality is structural
/// equality of candidate programs. Recombination reads and produces row
/// ids; rows are interned only at the commit of each wave, and real
/// TermPtrs materialize only in extract(). Row ids are allocated in
/// wave-commit order, a pure function of the graph.
class KBestExtractor {
public:
  /// The trailing thread count is ignored (the engine is serial); it is
  /// kept so existing four-argument callers still compile.
  KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K,
                 size_t /*IgnoredNumThreads*/ = 1);

  /// Releases the engine's dirty-log lease; see Extractor.
  ~KBestExtractor();

  KBestExtractor(const KBestExtractor &) = delete;
  KBestExtractor &operator=(const KBestExtractor &) = delete;

  /// Incrementally re-derives candidate lists after graph mutations; see
  /// Extractor::refresh(). Like Extractor, compacts superseded candidate
  /// rows once they dominate the table.
  void refresh();

  /// Up to k cheapest distinct terms of the class, cheapest first.
  std::vector<RankedTerm> extract(EClassId Id) const;

  /// Rows currently held by the candidate table, stale keys included
  /// (tests assert bounded growth across long sessions).
  size_t tableEntries() const { return Table.size(); }

private:
  /// One hashconsed candidate shape: an operator applied to child rows
  /// (a span into RowKids). ValueHash caches termValueHash of the term
  /// the row denotes, for O(arity) dedup hashing during recombination.
  struct CandRow {
    Op Operator;
    uint32_t KidsBegin;
    uint32_t KidsEnd;
    size_t ValueHash;
  };
  /// A candidate program of one class: its cost and interned row.
  struct CandRef {
    double Cost;
    uint32_t Row;
  };
  /// A recombination result before its row is interned: staged while the
  /// wave combines against the frozen table, interned at the wave commit.
  struct PendingCand {
    double Cost;
    size_t ValueHash;
    Op Operator;
    std::vector<uint32_t> Kids;
  };

  const EGraph &G;
  const CostFn &Fn;
  size_t K;
  Extractor OneBest; ///< processing priority + refresh seed costs
  uint64_t SyncedGen = 0;
  uint64_t DirtyLease = 0; ///< see Extractor::DirtyLease
  std::unordered_map<EClassId, std::vector<CandRef>> Table;
  /// The row store: append-only, immutable once written, deduplicated through
  /// RowIndex so structurally equal candidates share one row id.
  std::vector<CandRow> Rows;
  std::vector<uint32_t> RowKids;
  /// Open-addressed dedup index over Rows: a slot holds (structural hash,
  /// row id + 1), with 0 meaning empty. The store is append-only — rows
  /// are never erased — so linear probing needs no tombstones; the table
  /// doubles at 3/4 occupancy (Rows.size() is exactly the occupancy,
  /// since every row is inserted here once). Replaces a node-based
  /// unordered_map whose bucket chases dominated the commit path.
  struct RowSlot {
    size_t Hash = 0;
    uint32_t RowPlus1 = 0;
  };
  std::vector<RowSlot> RowIndex;
  /// Lazy row -> term materializations (extract() only).
  /// Never invalidated: rows are immutable.
  mutable std::unordered_map<uint32_t, TermPtr> RowTerms;

  void deriveFrom(const std::vector<EClassId> &Seeds);

  /// Interns (O, Kids[0..N)) in the row store; \p ValueHash must equal
  /// termValueHashNode(O, kid value hashes). Called from the wave commit.
  uint32_t internRow(const Op &O, const uint32_t *Kids, size_t N,
                     size_t ValueHash);
  /// Value-level equality of two rows (the row analogue of
  /// termApproxEquals at Eps 0). Read-only.
  bool rowValueEq(uint32_t A, uint32_t B) const;
  /// Recomputes the up-to-k cheapest distinct candidates of \p Id from
  /// the frozen table. Pure reader of engine state.
  std::vector<PendingCand> combineClass(EClassId Id) const;
  /// Builds the term a row denotes (iterative, memoized in RowTerms).
  TermPtr materializeRow(uint32_t Row) const;
};

/// Top-k extraction oracle: whole-graph sweeps to a fixed point (the
/// original pass() structure), sharing the per-class lazy combination and
/// hashed deduplication with the worklist engine so the two differ only in
/// scheduling — the part differential tests need to pin down.
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

#endif // SHRINKRAY_EGRAPH_EXTRACT_H
