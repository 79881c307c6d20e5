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
/// Both engines are one-shot: they read a clean graph that no longer
/// changes, once, after saturation and solving.
///
///  * `Extractor` computes every class's one-best cost (egg's bottom-up
///    analysis): leaf e-nodes seed a worklist that relaxes parent e-nodes
///    through EGraph::canonicalParents until no (cost, choice) pair
///    improves.
///  * `KBestExtractor` keeps those one-best costs for every class and
///    derives k-best candidate lists lazily from the root (Huang & Chiang,
///    "Better k-best Parsing", Alg. 3, on the e-graph as a hypergraph): a
///    class's list grows only when a parent asks for its next candidate,
///    so most classes are never expanded at all.
///
/// Cost ties are broken deterministically (smallest e-node under a fixed
/// total order for one-best; node index, then child candidate indices for
/// k-best), which makes extraction a pure function of the graph. The
/// fixed-point oracles that pin both engines live in the test library
/// (tests/oracle).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_EXTRACT_H
#define SHRINKRAY_EGRAPH_EXTRACT_H

#include "egraph/EGraph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace shrinkray {

/// A cost function over operators and already-computed child costs.
class CostFn {
public:
  virtual ~CostFn() = default;

  /// Cost of a node with operator \p O whose children cost \p ChildCosts.
  /// Must be monotone in every child cost and strictly greater than each
  /// of them: extraction terminates on cyclic e-graphs because a program
  /// costs more than any of its parts, and the lazy k-best engine relies
  /// on it to order the candidates of a cycle.
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

/// Three-way total order on e-nodes under the current union-find: operator,
/// then arity, then canonical child ids left to right. Distinct canonical
/// nodes never compare equal, so breaking one-best cost ties with it makes
/// the extraction fixpoint unique.
int enodeCompare(const EGraph &G, const ENode &A, const ENode &B);

/// One-best extraction: computes, per class, the cheapest representable
/// term by worklist relaxation along the parent index.
class Extractor {
public:
  Extractor(const EGraph &G, const CostFn &Fn);

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
  // Dense cost table indexed by class id (+inf = no finite-cost term).
  // relax probes it once per (node, child), which made a hashed map's
  // find() a measurable slice of extraction profiles.
  std::vector<double> Costs;
  std::unordered_map<EClassId, ENode> Choices;
  mutable std::unordered_map<EClassId, TermPtr> BuildMemo;
  /// Child-cost scratch reused across relax() calls.
  std::vector<double> KidCostScratch;

  /// Evaluates \p Node as a candidate for \p Id; returns true and updates
  /// the tables when it improves the stored (cost, choice) pair.
  bool relax(EClassId Id, const ENode &Node);

  TermPtr build(EClassId Id) const;
};

/// A term together with its extraction cost.
struct RankedTerm {
  TermPtr T;
  double Cost;
};

/// Top-k extraction: per class, the k cheapest *distinct* terms (paper
/// Sec. 5.1: ShrinkRay returns the top-k programs so the user can pick the
/// parameterization that suits the edit they want to make). Distinctness is
/// value-level: Int(5) and Float(5.0) respellings do not count as program
/// diversity.
///
/// A class's candidates are the combinations (e-node, one candidate index
/// per child) in ascending (cost, node index, lexicographic child indices)
/// order, deduplicated by value and cut at k. The engine enumerates them
/// lazily: each class holds a frontier heap seeded with one combination per
/// e-node, and a popped combination's successors (one child index bumped)
/// enter the heap keyed by a lower bound until a parent's request makes
/// their child candidates, and so their exact cost, known. Requests run on
/// an explicit stack, so spines thousands of classes deep extract without
/// recursion; Extract.cpp shows why a request never waits on a class that
/// is already waiting.
///
/// Candidates live in a flat row store, not as materialized terms: a row
/// is (operator, child row ids) plus its value hash; real TermPtrs
/// materialize only in extract().
class KBestExtractor {
public:
  /// The trailing thread count is ignored (the engine is serial); it is
  /// kept so existing four-argument callers still compile.
  KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K,
                 size_t /*IgnoredNumThreads*/ = 1);

  KBestExtractor(const KBestExtractor &) = delete;
  KBestExtractor &operator=(const KBestExtractor &) = delete;

  /// Up to k cheapest distinct terms of the class, cheapest first. Derives
  /// whatever candidates of the class and its descendants are still
  /// missing; later calls reuse them.
  std::vector<RankedTerm> extract(EClassId Id);

  /// Candidate rows created so far (tests pin how little of the graph a
  /// root extraction touches).
  size_t rowsInterned() const { return Rows.size(); }

private:
  /// One candidate program: an operator applied to child rows (a span
  /// into RowKids). ValueHash caches termValueHash of the term the row
  /// denotes, for O(arity) dedup hashing.
  struct CandRow {
    Op Operator;
    uint32_t KidsBegin;
    uint32_t KidsEnd;
    size_t ValueHash;
  };
  /// A candidate of one class: its cost and row.
  struct CandRef {
    double Cost;
    uint32_t Row;
  };
  /// A frontier combination: e-node NodeIdx of the class with child
  /// candidate indices IxPool[IxBegin, IxBegin + Arity). With Exact, Key
  /// is its cost over those child candidates, all fixed; otherwise Key is
  /// a lower bound on that cost. Bump is the first child position its
  /// successors may advance (each combination is generated exactly once).
  struct Item {
    double Key;
    uint32_t NodeIdx;
    uint32_t Bump;
    uint32_t IxBegin;
    uint32_t Arity;
    bool Exact;
  };
  struct ClassState {
    EClassId Id;
    std::vector<CandRef> List; ///< candidates fixed so far, cheapest first
    std::vector<Item> Heap;    ///< frontier, ordered by laterThan
    bool Done = false;         ///< List is final (k reached or exhausted)
    bool OnStack = false;      ///< waiting on the request stack
  };

  const EGraph &G;
  const CostFn &Fn;
  size_t K;
  Extractor OneBest; ///< seeds frontier keys and decides usable e-nodes
  /// Class id -> index + 1 into States (0 = not expanded yet). A deque
  /// keeps references stable while requests expand new classes.
  std::vector<uint32_t> StateOf;
  std::deque<ClassState> States;
  std::vector<uint32_t> IxPool;
  std::vector<CandRow> Rows;
  std::vector<uint32_t> RowKids;
  /// Row -> term materializations (extract() only).
  std::unordered_map<uint32_t, TermPtr> RowTerms;
  /// The request stack: states waiting for their next candidate.
  std::vector<ClassState *> Stack;
  std::vector<double> CostScratch;
  std::vector<size_t> HashScratch;

  /// The state of canonical class \p Id, created (frontier seeded) on
  /// first use.
  ClassState &state(EClassId Id);
  const ENode &itemNode(const ClassState &S, const Item &It) const;
  /// Heap order: true when \p A comes after \p B.
  bool laterThan(const Item &A, const Item &B) const;
  /// Cost of \p It over its children's fixed candidates.
  double exactCost(const ClassState &S, const Item &It);
  void pushItem(ClassState &S, const Item &It);
  Item popItem(ClassState &S);

  /// Fixes the next candidate of \p Root (or marks its list final),
  /// running every request it depends on.
  void fixNext(ClassState &Root);
  /// Pops the fully known top combination of \p S: appends it unless it
  /// is value-equal to a fixed candidate, then queues its successors.
  /// Returns whether a candidate was appended.
  bool acceptTop(ClassState &S);
  /// Value-level equality of two rows (the row analogue of
  /// termApproxEquals at Eps 0).
  bool rowValueEq(uint32_t A, uint32_t B) const;
  /// Builds the term a row denotes (iterative, memoized in RowTerms).
  TermPtr materializeRow(uint32_t Row);
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_EXTRACT_H
