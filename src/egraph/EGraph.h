//===-- egraph/EGraph.h - E-graph with congruence closure -------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The e-graph engine at the core of ShrinkRay (paper Sec. 3.1). An e-graph
/// is a set of e-classes, each a set of e-nodes; it maintains congruence
/// closure under merges using deferred rebuilding (the invariant-restoration
/// strategy later popularized by egg). The graph also carries a constant-
/// folding e-class analysis: every class whose terms all evaluate to the
/// same numeric constant knows that constant, which the affine-collapsing
/// rewrites and the arithmetic function solvers rely on.
///
/// Three structures support the indexed, incremental e-matching and
/// extraction engines (egg's classes_by_op / E-morphic's operator
/// indexing):
///
///  * an operator-head index mapping each Op to the canonical classes
///    containing an e-node with that head (classesWithOp()),
///  * a generation counter stamping every class-touching mutation, so the
///    Runner can restrict a rule's search to classes in which a new match
///    could have appeared since the rule last searched (takeDirtySince()),
///    and, with per-node creation stamps, to the e-nodes of those classes
///    that are new or sit directly over a change,
///    and the extraction engine can re-derive costs for exactly the
///    classes whose best term may have changed, and
///  * a merge-stable parent index: each class records the ids of the
///    e-nodes that reference it, compacted lazily by canonicalParents(), so
///    cost improvements propagate bottom-up along exactly the edges that
///    can observe them (egg's extraction-as-analysis pattern).
///
/// Storage is flat (egg's layout): every e-node lives once in a per-graph
/// node table addressed by 32-bit ENodeIds, with its children inline;
/// classes sit in one vector indexed by class id and list their member
/// and parent e-nodes by id; the hash-consing memo is an open-addressed
/// table of node ids.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_EGRAPH_H
#define SHRINKRAY_EGRAPH_EGRAPH_H

#include "cad/Term.h"
#include "egraph/ENode.h"
#include "egraph/UnionFind.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace shrinkray {

/// Per-class analysis data: the numeric constant all members evaluate to,
/// if any. Maintained bottom-up across add/merge (egg-style analysis).
struct AnalysisData {
  std::optional<double> NumConst;
  bool NumIsInt = false;

  friend bool operator==(const AnalysisData &A, const AnalysisData &B) {
    return A.NumConst == B.NumConst && A.NumIsInt == B.NumIsInt;
  }
};

/// Bit for head kind \p K in EClass::Kinds.
inline uint64_t opKindBit(OpKind K) {
  static_assert(NumOpKinds <= 64, "EClass::Kinds is one 64-bit word");
  return uint64_t(1) << static_cast<unsigned>(K);
}

/// An equivalence class of e-nodes. Its nodes and parent entries are ids
/// into the graph's node table (EGraph::node()).
struct EClass {
  EClassId Id = 0;
  /// Member e-nodes. A node's creation stamp lives in the node table
  /// (EGraph::nodeGen()), so merges and repair's dedupe carry stamps along
  /// with the ids.
  std::vector<ENodeId> Nodes;
  /// opKindBit() of every head kind among Nodes. Monotone: a class only
  /// gains heads (merges union node sets, dedupe keeps one copy of each),
  /// so this is exact, and the Runner filters dirty classes by head kind
  /// without touching the op-index.
  uint64_t Kinds = 0;
  /// E-nodes that have this class among their children; the class holding
  /// each is EGraph::nodeClass(). A node's stored form may be stale between
  /// rebuilds (queries canonicalize through find()), and an entry may
  /// repeat or name a congruent twin until canonicalParents() compacts it.
  /// mutable: canonicalParents() compacts it in place, a cache-maintenance
  /// detail of a logically const query.
  mutable std::vector<ENodeId> Parents;
  /// Graph generation as of the last canonicalParents() compaction; when it
  /// still matches, the Parents list is known-canonical and compaction is
  /// skipped. 0 = never compacted.
  mutable uint64_t ParentsCompactedGen = 0;
  AnalysisData Data;
};

/// E-graph over the CAD operator vocabulary.
class EGraph {
public:
  EGraph() = default;
  EGraph(const EGraph &) = delete;
  EGraph &operator=(const EGraph &) = delete;

  /// Adds (hash-conses) an e-node; children are canonicalized first.
  /// Returns the canonical id of the class containing it.
  EClassId add(ENode Node);

  /// Adds a whole term bottom-up; returns the class of its root. Terms
  /// are interned DAGs, so shared subtrees are visited once (a per-call
  /// pointer-keyed memo — the e-graph hash-conses equal nodes to the
  /// same class anyway, this just skips the redundant probes). Iterative:
  /// terms built in code are not depth-bounded by the parsers.
  EClassId addTerm(const TermPtr &T);

  /// Unifies two classes. Returns the canonical id of the merged class and
  /// whether anything changed. Congruence is restored lazily: call rebuild()
  /// before reading the graph again.
  std::pair<EClassId, bool> merge(EClassId A, EClassId B);

  /// Restores the congruence and hash-consing invariants after merges.
  void rebuild();

  /// True when merges are pending and rebuild() must run before queries.
  bool isDirty() const { return !Worklist.empty(); }

  EClassId find(EClassId Id) const { return UF.find(Id); }

  const EClass &eclass(EClassId Id) const { return Classes[UF.find(Id)]; }

  /// E-node \p N of the node table. Its stored children may be stale
  /// (canonicalize through find()). The reference is valid until the next
  /// graph mutation: insertion grows the table.
  const ENode &node(ENodeId N) const {
    assert(N < Nodes.size() && "node id out of range");
    return Nodes[N];
  }

  /// Canonical id of the class holding e-node \p N.
  EClassId nodeClass(ENodeId N) const { return UF.find(NodeHome[N]); }

  /// Creation stamp of e-node \p N: the graph generation at which it
  /// entered the graph (add() or a constant-folded literal leaf). An
  /// incremental search at cursor C may skip a root e-node stamped <= C
  /// whose children are all outside the dirty closure since C: every match
  /// through it was already found at C (see RuleSet::RootFilter).
  uint64_t nodeGen(ENodeId N) const { return NodeGens[N]; }

  /// Size of the node table, dead nodes included (a node repair's dedupe
  /// dropped from its class stays addressable by parent entries).
  size_t numNodeIds() const { return Nodes.size(); }

  const AnalysisData &data(EClassId Id) const { return eclass(Id).Data; }

  /// All canonical class ids, in increasing id order (deterministic).
  std::vector<EClassId> classIds() const;

  /// Number of live (canonical) classes. O(1): maintained across
  /// add/merge rather than rescanned.
  size_t numClasses() const { return LiveClasses; }

  /// Total number of e-nodes across live classes. O(1): maintained across
  /// add/merge/rebuild rather than rescanned.
  size_t numNodes() const { return LiveNodes; }

  /// Size of the id space (live classes plus superseded ids still routed
  /// through the union-find). Any id below this bound is safe to pass to
  /// find().
  size_t numIds() const { return Classes.size(); }

  /// Canonical classes containing at least one e-node whose head operator
  /// is \p O, in increasing id order (deterministic). The returned
  /// reference is valid until the next graph mutation. Amortized cheap:
  /// the underlying bucket is compacted (canonicalized, deduped) in place
  /// on access.
  const std::vector<EClassId> &classesWithOp(const Op &O) const;

  /// True if class \p Id holds an e-node with head kind \p K. O(1).
  bool hasKind(EClassId Id, OpKind K) const {
    return (eclass(Id).Kinds & opKindBit(K)) != 0;
  }

  /// Monotonic mutation counter. Every event that could enable a new
  /// pattern match — class creation, node insertion, merge, analysis
  /// change — bumps it and stamps the touched class. Never decreases.
  uint64_t generation() const { return Gen; }

  /// Canonical ids of every class in which a new match could be rooted by
  /// mutations after generation \p Since: classes touched since then,
  /// closed upward through parent pointers (a match rooted at C consumes
  /// nodes of C's descendants, so a change deep in the graph can create a
  /// match arbitrarily far above it). Ascending id order. Requires a
  /// clean graph. Cost is proportional to the closure, not graph size.
  ///
  /// A class in the result may hold e-nodes that did not change: the
  /// Runner's incremental search re-searches only those stamped after
  /// \p Since (nodeGen()) or with a child in the result.
  ///
  /// If the log prefix covering \p Since has been dropped by
  /// compactDirtyLog(), the result degrades soundly to *every* class — an
  /// over-approximation that costs a full rescan but never misses a
  /// touch.
  std::vector<EClassId> takeDirtySince(uint64_t Since) const;

  /// Truncates the append-only touch log behind takeDirtySince: entries at
  /// generations <= \p MinLiveGen can no longer be requested by a live
  /// cursor and are dropped. The Runner calls this once per saturation
  /// iteration with the minimum of its rules' search cursors, which
  /// bounds log growth to one saturation run's churn instead of the
  /// session's.
  void compactDirtyLog(uint64_t MinLiveGen);

  /// Number of entries currently held by the touch log (tests assert
  /// bounded growth across long sessions).
  size_t dirtyLogSize() const { return DirtyLog.size(); }

  /// Quiesces the lazily-mutated state behind the const queries the
  /// match VM and rule guards use: fully compresses the union-find, after
  /// which find() — and everything built on it: eclass(), data(),
  /// lookup(), representsTerm() — performs no writes and is safe to call
  /// from multiple threads until the next mutation. classesWithOp() and
  /// canonicalParents() remain single-threaded: their in-place compaction
  /// writes (even if value-identical) on every call, so candidate lists
  /// must be materialized by the coordinating thread before fan-out (as
  /// the Runner's phase 1a does). Amortized O(1): re-preparation after no
  /// mutations is a generation-stamp check. Requires a clean graph.
  void prepareForConcurrentReads() const;

  /// The parent index of \p Id: one e-node id per distinct canonical
  /// e-node that has \p Id among its children (nodeClass() names the class
  /// containing it; its stored form canonicalizes to the distinct node).
  /// Like classesWithOp(), the underlying storage is merge-stable (a merge
  /// concatenates the loser's entries onto the winner; stale forms still
  /// canonicalize truthfully) and is compacted in place on access, so the
  /// amortized cost is proportional to churn, not to repeated queries.
  /// Requires a clean graph; the returned reference is valid until the
  /// next graph mutation.
  const std::vector<ENodeId> &canonicalParents(EClassId Id) const;

  /// Canonicalizes an e-node's children.
  ENode canonicalize(const ENode &Node) const;

  /// True if the class (transitively) represents exactly the given term.
  bool representsTerm(EClassId Id, const TermPtr &T) const;

  /// Like representsTerm, but numeric leaves match by value within \p Eps
  /// (Int(5) matches Float(5.0); folded constants match their literals).
  bool representsTermApprox(EClassId Id, const TermPtr &T, double Eps) const;

  /// Looks up the class that would contain \p Node, if it exists.
  std::optional<EClassId> lookup(const ENode &Node) const;

  /// Multi-line dump for debugging and golden tests.
  std::string dump() const;

  /// Validates the e-graph's internal invariants (canonical hash-consing,
  /// memo entries keyed by their nodes' stored forms, class membership
  /// agreeing with each node's home class, nodes no class lists
  /// hash-consed to their own class, every canonical memo form held by a
  /// live node, congruence closure,
  /// parent-pointer consistency, no node stamp past generation(), exact
  /// head-kind masks, operator-index agreement with a full rescan, and
  /// counter accuracy).
  /// Returns an empty string when everything holds, else a description of
  /// the first violation. Requires a clean graph (rebuild() first).
  /// Intended for tests and debugging; O(nodes * arity).
  std::string checkInvariants() const;

private:
  UnionFind UF;
  /// Indexed by class id; only canonical ids hold live classes (a merge
  /// empties the loser's entry).
  std::vector<EClass> Classes;

  /// The node table, addressed by ENodeId. Append-only: a node dropped
  /// from its class by repair's dedupe stays addressable, because parent
  /// entries may still name it (its form canonicalizes to the survivor's).
  std::vector<ENode> Nodes;
  /// Class each node entered (add()'s fresh class, or the class a literal
  /// leaf was folded into); find() of it is the node's class.
  std::vector<EClassId> NodeHome;
  /// Creation stamp per node (nodeGen()).
  std::vector<uint64_t> NodeGens;

  /// Hash-consing memo: an open-addressed (linear probing) set of node
  /// ids keyed by each node's *stored* form, at most one per form. A
  /// node's stored form only changes inside repair(), which takes it out
  /// of the memo first. The class a form hash-conses to is nodeClass() of
  /// its entry. Slot = node id + 1 (0 = empty) and 32 hash bits, which
  /// also pick the home bucket, so deletion can shift entries back.
  struct MemoSlot {
    uint32_t NodePlus1 = 0;
    uint32_t Hash = 0;
  };
  std::vector<MemoSlot> Memo;
  size_t MemoCount = 0;

  std::vector<EClassId> Worklist;

  /// Groups e-node forms by equality, in first-occurrence order: an
  /// open-addressed table of group indexes over the group forms, sized per
  /// use and kept across calls, so grouping allocates nothing once warm.
  /// repair() groups its parents with it; canonicalParents() and the
  /// class-node dedupe drop repeated forms with it.
  struct FormGroups {
    std::vector<ENode> Forms;
    std::vector<uint32_t> Slots; ///< group index + 1; 0 = empty
    /// Empties the groups, with room for \p MaxForms forms.
    void reset(size_t MaxForms);
    /// Group of \p Form, and whether \p Form opened it.
    std::pair<size_t, bool> insert(ENode Form);
  };
  /// mutable: the const canonicalParents() compacts with it too.
  mutable FormGroups Groups;

  /// Operator-head index: Op -> class ids owning an e-node with that head.
  /// Entries are appended on insertion and never eagerly removed; a merge
  /// leaves the loser's ids in place (they still find() to the winner, and
  /// the winner inherits the loser's nodes, so every entry stays truthful).
  /// classesWithOp() compacts buckets lazily. mutable: compaction is a
  /// cache-maintenance detail of a logically const query.
  mutable std::unordered_map<Op, std::vector<EClassId>> OpIndex;

  /// Append-only log of (generation, touched class id), gens strictly
  /// increasing. Ids are canonical at touch time; a later merge re-logs
  /// the winner, and a loser's stale entry still find()s into the merged
  /// class, so replaying a suffix never loses a touch. compactDirtyLog()
  /// trims the prefix no live cursor can request.
  std::vector<std::pair<uint64_t, EClassId>> DirtyLog;
  uint64_t Gen = 0;
  /// Highest generation the log has been compacted through: entries at
  /// gens <= DirtyFloor are gone, so takeDirtySince(Since) is exact only
  /// for Since >= DirtyFloor (below it falls back to all classes).
  uint64_t DirtyFloor = 0;
  /// Generation as of the last prepareForConcurrentReads(); when it still
  /// matches, the union-find is known fully compressed.
  mutable uint64_t PreparedGen = 0;

  size_t LiveClasses = 0;
  size_t LiveNodes = 0;

  /// Logs a touch of \p Id (must be canonical) at a fresh generation.
  void touch(EClassId Id) { DirtyLog.emplace_back(++Gen, Id); }

  EClass &eclassMut(EClassId Id) { return Classes[UF.find(Id)]; }

  /// Appends \p Node to the node table as a member of class \p Home,
  /// stamped with the current generation.
  ENodeId newNode(ENode Node, EClassId Home);

  /// Replaces \p Node's children by their canonical ids.
  void canonicalizeChildren(ENode &Node) const;

  /// Copy of \p N with canonical children.
  ENode canonicalForm(ENodeId N) const { return canonicalize(Nodes[N]); }

  /// Drops each id of \p Ids whose canonical form equals an earlier one's,
  /// keeping first-occurrence order. Stored forms are left alone.
  void dedupeByForm(std::vector<ENodeId> &Ids) const;

  static uint32_t memoHash(const ENode &Form) {
    return static_cast<uint32_t>(mix64(Form.hash()) >> 32);
  }
  /// Memo slot holding a node stored as \p Form, or SIZE_MAX.
  size_t memoFind(const ENode &Form, uint32_t Hash) const;
  /// Inserts node \p N (no entry for its stored form may exist).
  void memoInsert(ENodeId N, uint32_t Hash);
  /// Removes the entry keyed by \p Form, if any.
  void memoErase(const ENode &Form);
  /// Computes the analysis data an e-node would contribute.
  AnalysisData makeData(const ENode &Node) const;

  /// Merges \p From into \p Into. Returns true if \p Into changed.
  static bool joinData(AnalysisData &Into, const AnalysisData &From);

  /// Analysis hook run when a class's data changes: materializes numeric
  /// constants as literal leaf e-nodes so extraction can pick them.
  void modify(EClassId Id);

  void repair(EClassId Id);

  /// Memo key for representsTerm*: (canonical class, term node identity).
  /// Shared subterms (same Term object) are checked once per class, which
  /// keeps DAG-shaped terms linear instead of exponential.
  using TermMemo =
      std::unordered_map<uint64_t, std::unordered_map<const Term *, bool>>;

  bool representsTermRec(EClassId Id, const TermPtr &T, TermMemo &Memo) const;
  bool representsTermApproxRec(EClassId Id, const TermPtr &T, double Eps,
                               TermMemo &Memo) const;
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_EGRAPH_H
