//===-- egraph/Extract.cpp - Cost-based extraction ------------------------===//
//
// Two engines per problem (one-best, k-best): a worklist engine that
// propagates cost derivations upward along the e-graph's parent index, and
// a whole-graph fixed-point oracle used by the differential tests. The
// engines share the deterministic tie-break (and, for k-best, the per-class
// lazy combination), so on any graph they produce bit-identical results;
// they differ in *scheduling*, which is where incrementality bugs would
// live.
//
//===----------------------------------------------------------------------===//

#include "egraph/Extract.h"

#include <cassert>
#include <queue>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Shared helpers: deterministic orders, node costing, lazy k-best combine
//===----------------------------------------------------------------------===//

namespace {

/// Three-way total order on operators (kind, then payload). Symbol payloads
/// compare by spelling so the order does not depend on interning order.
int opCompare(const Op &A, const Op &B) {
  if (A.kind() != B.kind())
    return A.kind() < B.kind() ? -1 : 1;
  switch (A.kind()) {
  case OpKind::Int:
    if (A.intValue() != B.intValue())
      return A.intValue() < B.intValue() ? -1 : 1;
    return 0;
  case OpKind::Float:
    if (A.floatValue() != B.floatValue())
      return A.floatValue() < B.floatValue() ? -1 : 1;
    return 0;
  case OpKind::Var:
  case OpKind::External:
  case OpKind::OpRef:
  case OpKind::PatVar:
    return A.symbol().str().compare(B.symbol().str());
  default:
    return 0;
  }
}

/// Three-way total order on e-nodes under the current union-find: operator,
/// then arity, then canonical child ids left to right. Distinct canonical
/// nodes never compare equal, so using this to break cost ties makes the
/// extraction fixpoint unique — the property the differential tests pin.
int enodeCompare(const EGraph &G, const ENode &A, const ENode &B) {
  if (int C = opCompare(A.Operator, B.Operator))
    return C;
  if (A.arity() != B.arity())
    return A.arity() < B.arity() ? -1 : 1;
  for (size_t I = 0; I < A.arity(); ++I) {
    EClassId CA = G.find(A.child(I)), CB = G.find(B.child(I));
    if (CA != CB)
      return CA < CB ? -1 : 1;
  }
  return 0;
}

/// Sentinel for "no finite-cost term derived yet" in the worklist
/// engine's dense cost table. Cost functions are finite by contract
/// (monotone sums/maxes of finite leaf costs), so infinity never denotes
/// a real cost.
constexpr double UnsetCost = std::numeric_limits<double>::infinity();

/// Cost-table lookup, overloaded so nodeCost serves both engines: the
/// worklist engine keys a dense vector by class id (the hashed map's
/// find() was a measurable slice of extraction profiles), the reference
/// oracle keeps the map.
inline const double *findCost(const std::vector<double> &Costs, EClassId Id) {
  return Id < Costs.size() && Costs[Id] < UnsetCost ? &Costs[Id] : nullptr;
}
inline const double *findCost(const std::unordered_map<EClassId, double> &Costs,
                              EClassId Id) {
  auto It = Costs.find(Id);
  return It == Costs.end() ? nullptr : &It->second;
}

/// Cost of \p Node given the per-class cost table, or nullopt while any
/// child is still unextractable. Children are resolved through find(), so
/// stale node forms cost correctly. \p Kids is caller-owned scratch —
/// relaxation calls this once per (class, node) visit, and a fresh
/// allocation per call dominated the one-best refresh profile.
template <typename CostTable>
std::optional<double> nodeCost(const EGraph &G, const CostFn &Fn,
                               const CostTable &Costs, const ENode &Node,
                               std::vector<double> &Kids) {
  Kids.clear();
  for (EClassId Kid : Node.children()) {
    const double *C = findCost(Costs, G.find(Kid));
    if (!C)
      return std::nullopt;
    Kids.push_back(*C);
  }
  return Fn.cost(Node.Operator, Kids);
}

using KTable = std::unordered_map<EClassId, std::vector<ExtractCandidate>>;

/// The candidate list of \p Id, or nullptr while the class has none.
const std::vector<ExtractCandidate> *candList(const KTable &Table,
                                              const EGraph &G, EClassId Id) {
  auto It = Table.find(G.find(Id));
  if (It == Table.end() || It->second.empty())
    return nullptr;
  return &It->second;
}

/// Recomputes the up-to-k cheapest distinct candidates of class \p Id from
/// its children's current candidate lists: one best-first frontier heap
/// over *all* the class's e-nodes ("cube pruning" / lazy k-shortest paths),
/// popping combinations in ascending (cost, node index, combination index)
/// order and deduplicating by value hash, so the k-th distinct program is
/// found after O(k) pops plus duplicates instead of materializing k
/// candidates per node and merging. Deterministic: the heap order is a
/// total order, so ties resolve identically regardless of caller.
///
/// This is the *oracle's* term-materializing combine; the worklist engine
/// runs the row-based KBestExtractor::combineClass, which shares the heap
/// order and dedup semantics but allocates no terms — the differential
/// tests pin the two against each other.
std::vector<ExtractCandidate> combineClass(const EGraph &G, const CostFn &Fn,
                                           size_t K, EClassId Id,
                                           const KTable &Table) {
  const std::vector<ENodeId> &Nodes = G.eclass(Id).Nodes;

  // Resolved child candidate lists, flattened across nodes; a node with a
  // candidate-less child stays unusable this round (Arity == NotUsable).
  constexpr size_t NotUsable = static_cast<size_t>(-1);
  std::vector<const std::vector<ExtractCandidate> *> ChildLists;
  std::vector<std::pair<size_t, size_t>> Span(Nodes.size()); // offset, arity
  for (size_t N = 0; N < Nodes.size(); ++N) {
    const ENode &Node = G.node(Nodes[N]);
    Span[N] = {ChildLists.size(), Node.arity()};
    for (EClassId Kid : Node.children()) {
      const std::vector<ExtractCandidate> *L = candList(Table, G, Kid);
      if (!L) {
        ChildLists.resize(Span[N].first);
        Span[N].second = NotUsable;
        break;
      }
      ChildLists.push_back(L);
    }
  }
  auto kidCand = [&](size_t N, size_t I,
                     const std::vector<size_t> &Ix) -> const ExtractCandidate & {
    return (*ChildLists[Span[N].first + I])[Ix[I]];
  };

  std::vector<double> CostScratch;
  auto comboCost = [&](size_t N, const std::vector<size_t> &Ix) {
    CostScratch.resize(Ix.size());
    for (size_t I = 0; I < Ix.size(); ++I)
      CostScratch[I] = kidCand(N, I, Ix).Cost;
    return Fn.cost(G.node(Nodes[N]).Operator, CostScratch);
  };

  // Frontier items carry the position they last bumped; successors only
  // bump positions >= Bump, which generates every combination exactly once
  // (canonical non-decreasing bump order) without a visited set.
  struct Item {
    double Cost;
    size_t NodeIdx;
    size_t Bump;
    std::vector<size_t> Ix;
  };
  auto Later = [](const Item &A, const Item &B) {
    if (A.Cost != B.Cost)
      return A.Cost > B.Cost;
    if (A.NodeIdx != B.NodeIdx)
      return A.NodeIdx > B.NodeIdx;
    return A.Ix > B.Ix;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(Later)> Frontier(
      Later);
  for (size_t N = 0; N < Nodes.size(); ++N) {
    if (Span[N].second == NotUsable)
      continue;
    std::vector<size_t> First(Span[N].second, 0);
    double Cost = comboCost(N, First);
    Frontier.push({Cost, N, 0, std::move(First)});
  }

  // A popped combination equals an accepted candidate iff the operator and
  // the child candidate terms match under value equality — checkable
  // without materializing the term, so duplicates cost no allocation. The
  // hash prefilter keeps the scan to (expected) zero term comparisons.
  auto isDupOf = [&](const ExtractCandidate &U, const Op &O, size_t N,
                     const std::vector<size_t> &Ix) {
    const Term &B = *U.T;
    bool ONum = O.kind() == OpKind::Int || O.kind() == OpKind::Float;
    bool BNum = B.kind() == OpKind::Int || B.kind() == OpKind::Float;
    if (ONum || BNum)
      return ONum && BNum && O.numericValue() == B.op().numericValue();
    if (O != B.op() || B.numChildren() != Ix.size())
      return false;
    for (size_t I = 0; I < Ix.size(); ++I)
      if (!termApproxEquals(kidCand(N, I, Ix).T, B.child(I), 0.0))
        return false;
    return true;
  };

  // The class's previous candidate list: in the fixed point's steady
  // state this pass re-derives exactly these candidates, so a 5-element
  // pointer-equality scan answers most term constructions without
  // touching the interner at all.
  const std::vector<ExtractCandidate> *Prev = nullptr;
  if (auto PrevIt = Table.find(Id); PrevIt != Table.end())
    Prev = &PrevIt->second;

  std::vector<ExtractCandidate> Out;
  std::vector<size_t> KidHashes;
  std::vector<const Term *> RawKids;
  while (!Frontier.empty() && Out.size() < K) {
    Item Top = Frontier.top();
    Frontier.pop();
    const ENode &Node = G.node(Nodes[Top.NodeIdx]);
    const size_t Arity = Top.Ix.size();

    // O(arity): child candidates carry their value hashes already.
    KidHashes.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      KidHashes[I] = kidCand(Top.NodeIdx, I, Top.Ix).ValueHash;
    size_t Hash = termValueHashNode(Node.Operator, KidHashes);
    bool Dup = false;
    for (const ExtractCandidate &U : Out)
      if (U.ValueHash == Hash &&
          isDupOf(U, Node.Operator, Top.NodeIdx, Top.Ix)) {
        Dup = true;
        break;
      }
    if (!Dup) {
      // Fixed-point passes re-derive the same candidates over and over;
      // resolve the term against last pass's list (structural identity:
      // same operator, pointer-equal children), then the interner's
      // lock-guarded probe, and only build a child vector when the term
      // really is new. The steady state allocates nothing.
      TermPtr T;
      if (Prev)
        for (const ExtractCandidate &P : *Prev) {
          const Term &PT = *P.T;
          if (P.ValueHash != Hash || PT.op() != Node.Operator ||
              PT.numChildren() != Arity)
            continue;
          bool Same = true;
          for (size_t I = 0; I < Arity; ++I)
            if (PT.child(I).get() != kidCand(Top.NodeIdx, I, Top.Ix).T.get()) {
              Same = false;
              break;
            }
          if (Same) {
            T = P.T;
            break;
          }
        }
      if (!T) {
        RawKids.resize(Arity);
        for (size_t I = 0; I < Arity; ++I)
          RawKids[I] = kidCand(Top.NodeIdx, I, Top.Ix).T.get();
        T = lookupTerm(Node.Operator, RawKids.data(), Arity);
      }
      if (!T) {
        std::vector<TermPtr> Kids(Arity);
        for (size_t I = 0; I < Arity; ++I)
          Kids[I] = kidCand(Top.NodeIdx, I, Top.Ix).T;
        T = makeTerm(Node.Operator, std::move(Kids));
      }
      Out.push_back({Top.Cost, std::move(T), Hash});
    }

    // Expand successors: bump one child index at a time, never before the
    // position this item bumped.
    for (size_t I = Top.Bump; I < Arity; ++I) {
      if (Top.Ix[I] + 1 >= ChildLists[Span[Top.NodeIdx].first + I]->size())
        continue;
      std::vector<size_t> Next = Top.Ix;
      ++Next[I];
      Frontier.push({comboCost(Top.NodeIdx, Next), Top.NodeIdx, I,
                     std::move(Next)});
    }
  }
  return Out;
}

/// Exact equality of candidate lists (cost, hash, then term structure).
bool listsEqual(const std::vector<ExtractCandidate> &A,
                const std::vector<ExtractCandidate> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Cost != B[I].Cost || A[I].ValueHash != B[I].ValueHash ||
        !termEquals(A[I].T, B[I].T))
      return false;
  return true;
}

/// Shared build of the chosen-term tree from a choice table.
TermPtr buildFromChoices(
    const EGraph &G, const std::unordered_map<EClassId, ENode> &Choices,
    std::unordered_map<EClassId, TermPtr> &Memo, EClassId Id) {
  Id = G.find(Id);
  auto Hit = Memo.find(Id);
  if (Hit != Memo.end())
    return Hit->second;
  auto It = Choices.find(Id);
  assert(It != Choices.end() && "extracting from a class with no finite cost");
  const ENode &Node = It->second;
  std::vector<TermPtr> Kids;
  Kids.reserve(Node.arity());
  for (EClassId Kid : Node.children())
    Kids.push_back(buildFromChoices(G, Choices, Memo, Kid));
  TermPtr T = makeTerm(Node.Operator, std::move(Kids));
  Memo.emplace(Id, T);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// One-best extraction: worklist engine
//===----------------------------------------------------------------------===//

Extractor::Extractor(const EGraph &G, const CostFn &Fn) : G(G), Fn(Fn) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  deriveFrom(G.classIds());
  SyncedGen = G.generation();
  // The lease keeps the Runner's dirty-log compaction from dropping the
  // suffix refresh() will request.
  DirtyLease = G.acquireDirtyLease(SyncedGen);
}

Extractor::~Extractor() { G.releaseDirtyLease(DirtyLease); }

namespace {

/// Erases every row of \p Table whose key is no longer canonical. Stale
/// rows are unreachable (lookups canonicalize through find() first), so
/// dropping them never changes results — but in long-lived sessions the
/// merge churn of many saturation rounds leaves tables dominated by
/// superseded keys. Callers sweep only when stale rows dominate
/// (amortized O(1) per refresh).
template <typename Map> void eraseStaleRows(const EGraph &G, Map &Table) {
  for (auto It = Table.begin(); It != Table.end();) {
    if (G.find(It->first) != It->first)
      It = Table.erase(It);
    else
      ++It;
  }
}

} // namespace

void Extractor::refresh() {
  assert(!G.isDirty() && "refresh on a dirty e-graph");
  if (G.generation() == SyncedGen) {
    G.updateDirtyLease(DirtyLease, SyncedGen);
    return;
  }
  // Only classes in the dirty closure can change their best term: a class
  // outside it gained no nodes, joined no merge, and every child of its
  // nodes kept its cost (else that child would be dirty and this class in
  // its ancestor closure).
  deriveFrom(G.takeDirtySince(SyncedGen));
  SyncedGen = G.generation();
  G.updateDirtyLease(DirtyLease, SyncedGen);
  BuildMemo.clear();
  if (CostsLive > 2 * G.numClasses()) {
    for (EClassId Id = 0; Id < Costs.size(); ++Id)
      if (Costs[Id] < UnsetCost && G.find(Id) != Id) {
        Costs[Id] = UnsetCost;
        --CostsLive;
      }
    eraseStaleRows(G, Choices);
  }
}

bool Extractor::relax(EClassId Id, const ENode &Node) {
  std::optional<double> C = nodeCost(G, Fn, Costs, Node, KidCostScratch);
  // A non-finite candidate cost (a degenerate cost function) cannot beat
  // or tie the UnsetCost sentinel meaningfully; treat it as unextractable.
  if (!C || !(*C < UnsetCost))
    return false;
  double &Slot = Costs[Id];
  bool Absent = !(Slot < UnsetCost);
  bool Better = Absent || *C < Slot;
  if (!Better && *C == Slot) {
    // Equal cost: adopt the candidate only if it is the smaller e-node, so
    // the final choice is the unique (cost, node) minimum. Stored forms may
    // be stale; enodeCompare resolves children through find().
    if (enodeCompare(G, Node, Choices.at(Id)) < 0) {
      Choices.insert_or_assign(Id, Node);
      return true;
    }
    return false;
  }
  if (!Better)
    return false;
  if (Absent)
    ++CostsLive;
  Slot = *C;
  Choices.insert_or_assign(Id, Node);
  return true;
}

void Extractor::deriveFrom(const std::vector<EClassId> &Seeds) {
  // The graph may have allocated ids since the last derivation; new slots
  // start unset. The id space never shrinks, so this never drops entries.
  if (Costs.size() < G.numIds())
    Costs.resize(G.numIds(), UnsetCost);
  std::vector<EClassId> WL;
  // Dense membership bytes (indexed by class id): the worklist churns
  // through every cost improvement, and a hashed set here showed up in
  // the refresh profile.
  std::vector<uint8_t> InWL(G.numIds(), 0);
  auto push = [&](EClassId Id) {
    if (!InWL[Id]) {
      InWL[Id] = 1;
      WL.push_back(Id);
    }
  };

  // Re-derive every seed from its full node set (a seed may have gained
  // nodes, absorbed a merge partner, or had a child's cost change), then
  // propagate improvements upward: a cost change at a class can only be
  // observed by the e-nodes that reference it, i.e. its parent index.
  for (EClassId S : Seeds) {
    EClassId Id = G.find(S);
    bool Improved = false;
    for (ENodeId N : G.eclass(Id).Nodes)
      Improved = relax(Id, G.node(N)) || Improved;
    if (Improved)
      push(Id);
  }
  while (!WL.empty()) {
    EClassId Id = WL.back();
    WL.pop_back();
    InWL[Id] = 0;
    for (ENodeId P : G.canonicalParents(Id)) {
      const EClassId PClass = G.nodeClass(P);
      if (relax(PClass, G.node(P)))
        push(PClass);
    }
  }
}

std::optional<double> Extractor::bestCost(EClassId Id) const {
  const double *C = findCost(Costs, G.find(Id));
  if (!C)
    return std::nullopt;
  return *C;
}

TermPtr Extractor::extract(EClassId Id) const { return build(G.find(Id)); }

const ENode *Extractor::choiceNode(EClassId Id) const {
  auto It = Choices.find(G.find(Id));
  return It == Choices.end() ? nullptr : &It->second;
}

TermPtr Extractor::build(EClassId Id) const {
  return buildFromChoices(G, Choices, BuildMemo, Id);
}

//===----------------------------------------------------------------------===//
// One-best extraction: fixed-point oracle
//===----------------------------------------------------------------------===//

ReferenceExtractor::ReferenceExtractor(const EGraph &G, const CostFn &Fn)
    : G(G) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  // Fixpoint: (cost, choice) pairs only decrease and are bounded below, so
  // this terminates. Same tie-break as the worklist engine, so the unique
  // fixpoint — and therefore every extracted term — is bit-identical.
  bool Changed = true;
  std::vector<double> KidScratch;
  while (Changed) {
    Changed = false;
    for (EClassId Id : G.classIds()) {
      for (ENodeId N : G.eclass(Id).Nodes) {
        const ENode &Node = G.node(N);
        std::optional<double> C = nodeCost(G, Fn, Costs, Node, KidScratch);
        if (!C)
          continue;
        auto It = Costs.find(Id);
        bool Better = It == Costs.end() || *C < It->second;
        if (!Better && *C == It->second) {
          ENode Canon = G.canonicalize(Node);
          if (enodeCompare(G, Canon, Choices.at(Id)) < 0) {
            Choices.insert_or_assign(Id, std::move(Canon));
            Changed = true;
          }
          continue;
        }
        if (!Better)
          continue;
        Costs[Id] = *C;
        Choices.insert_or_assign(Id, G.canonicalize(Node));
        Changed = true;
      }
    }
  }
}

std::optional<double> ReferenceExtractor::bestCost(EClassId Id) const {
  auto It = Costs.find(G.find(Id));
  if (It == Costs.end())
    return std::nullopt;
  return It->second;
}

TermPtr ReferenceExtractor::extract(EClassId Id) const {
  return build(G.find(Id));
}

const ENode *ReferenceExtractor::choiceNode(EClassId Id) const {
  auto It = Choices.find(G.find(Id));
  return It == Choices.end() ? nullptr : &It->second;
}

TermPtr ReferenceExtractor::build(EClassId Id) const {
  return buildFromChoices(G, Choices, BuildMemo, Id);
}

//===----------------------------------------------------------------------===//
// Top-k extraction: worklist engine
//===----------------------------------------------------------------------===//

KBestExtractor::KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K,
                               size_t)
    : G(G), Fn(Fn), K(K), OneBest(G, Fn) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  assert(K >= 1 && "k must be positive");
  deriveFrom(G.classIds());
  SyncedGen = G.generation();
  DirtyLease = G.acquireDirtyLease(SyncedGen);
}

KBestExtractor::~KBestExtractor() { G.releaseDirtyLease(DirtyLease); }

void KBestExtractor::refresh() {
  assert(!G.isDirty() && "refresh on a dirty e-graph");
  if (G.generation() == SyncedGen) {
    G.updateDirtyLease(DirtyLease, SyncedGen);
    return;
  }
  OneBest.refresh(); // priorities and extractability must be current first
  deriveFrom(G.takeDirtySince(SyncedGen));
  SyncedGen = G.generation();
  G.updateDirtyLease(DirtyLease, SyncedGen);
  if (Table.size() > 2 * G.numClasses())
    eraseStaleRows(G, Table);
}

void KBestExtractor::deriveFrom(const std::vector<EClassId> &Seeds) {
  // Wave-scheduled worklist (docs/ARCHITECTURE.md, "K-best wave
  // schedule"). Each round selects the pending classes whose node
  // children are all settled (children first, so the common acyclic case
  // recombines every class exactly once), sorts them by (one-best cost,
  // id), and recombines them against the *frozen* candidate table —
  // combineClass is a pure function of (graph, table), so each member's
  // result is staged first. Commits then run in wave order, and parents of
  // changed classes rejoin the pending set. Wave order fixes the order in
  // which rows are interned; and because candidate lists improve monotonically toward a unique
  // least fixpoint (the property the oracle differential tests pin), the
  // result agrees with the priority-queue engine it replaced.
  //
  // Readiness is event-driven, not rescanned: a blocked class can only
  // become ready when a pending child commits (or when it is itself
  // re-enqueued), so each round rechecks exactly the classes one of those
  // events touched — the Recheck list. Chain-shaped graphs (flat CSG is
  // mostly chains) produce thousands of tiny waves, and a full
  // ready-scan of Pending per wave made the scheduler quadratic there:
  // ~1.8 s of a 2.4 s nintendo-slot derivation was the rescans alone.
  // Pending-set membership is a dense byte per class id, not a hashed
  // set: isReady probes it once per (node, child), which made the set
  // lookups themselves a measurable slice of the derivation profile.
  std::vector<uint8_t> Pending(G.numIds(), 0);
  size_t NumPending = 0;
  std::vector<EClassId> Recheck;
  // Fallback aid: min-heap of (one-best cost, id) with at least one live
  // entry per pending class (lazy deletion — entries of classes that left
  // the pending set are skipped on pop). One-best costs are fixed for the
  // whole derivation, so the heap's minimum over live entries is exactly
  // the deterministic (cost, id) minimum of Pending; without it every
  // cycle-fallback round rescans the full pending set, which on
  // cycle-heavy graphs (gear) costs more than the combines themselves.
  using PQItem = std::pair<double, EClassId>;
  std::priority_queue<PQItem, std::vector<PQItem>, std::greater<PQItem>>
      CheapestPending;
  auto enqueue = [&](EClassId Id) {
    Id = G.find(Id);
    // no finite cost => can never have candidates
    if (std::optional<double> C = OneBest.bestCost(Id)) {
      if (!Pending[Id]) {
        Pending[Id] = 1;
        ++NumPending;
        CheapestPending.emplace(*C, Id);
      }
      // Unconditional: a re-enqueue is a readiness event even when the
      // class never left the pending set (its children may have).
      Recheck.push_back(Id);
    }
  };
  for (EClassId Id : Seeds)
    enqueue(Id);
  if (NumPending == 0)
    return;

  auto isReady = [&](EClassId Id) {
    for (ENodeId N : G.eclass(Id).Nodes)
      for (EClassId Kid : G.node(N).children()) {
        EClassId C = G.find(Kid);
        if (C != Id && Pending[C])
          return false;
      }
    return true;
  };

  // Wave members sort by (one-best cost, id); the cost is decorated in
  // rather than looked up per comparison.
  std::vector<std::pair<double, EClassId>> Wave;
  std::vector<std::vector<PendingCand>> Results;
  std::vector<CandRef> NewList;
  // Mirrors the serial engine's pop cap — sheer paranoia for graphs
  // where k-truncation feedback through cycles could oscillate.
  size_t CombinesLeft = (4 * G.numClasses() + 8) * (K + 2);
  while (NumPending != 0) {
    Wave.clear();
    std::sort(Recheck.begin(), Recheck.end());
    Recheck.erase(std::unique(Recheck.begin(), Recheck.end()), Recheck.end());
    for (EClassId Id : Recheck)
      if (Pending[Id] && isReady(Id))
        Wave.emplace_back(*OneBest.bestCost(Id), Id);
    Recheck.clear();
    if (Wave.empty()) {
      // Every pending class sits on a cycle (a blocked class always has a
      // pending child, so nothing outside Recheck can be ready): fall
      // back to the single cheapest member — exactly what the serial
      // queue would pop next. Its wave-mates stay blocked until it
      // commits, so they re-enter through the recheck of its parents.
      // The heap cannot run dry here: every pending class has a live
      // entry, and Pending is non-empty.
      while (!Pending[CheapestPending.top().second])
        CheapestPending.pop();
      Wave.push_back(CheapestPending.top());
      CheapestPending.pop();
      // The fallback pick consumed the round's recheck knowledge; rebuild
      // it for the next round from the classes its commit will unblock
      // (handled below via canonicalParents) — nothing extra needed here.
    } else {
      std::sort(Wave.begin(), Wave.end());
    }

    if (CombinesLeft < Wave.size()) {
      assert(false && "k-best wave scheduler hit its paranoia cap");
      break;
    }
    CombinesLeft -= Wave.size();

    // Every member combines against the table as it stood before the
    // wave; results are staged and committed below, in wave order.
    Results.resize(Wave.size());
    for (size_t I = 0; I < Wave.size(); ++I)
      Results[I] = combineClass(Wave[I].second);

    // Commit in wave order. Members leave the pending set first so a
    // changed wave-mate that references them can re-enqueue them for the
    // next round; a changed list is observable only through referencing
    // e-nodes (the parent index, self-loops included). Every committed
    // class rechecks its still-pending parents — that, plus re-enqueues,
    // is the complete set of readiness transitions.
    for (const auto &[Cost, Id] : Wave) {
      (void)Cost;
      Pending[Id] = 0;
      --NumPending;
    }
    for (size_t I = 0; I < Wave.size(); ++I) {
      EClassId Id = Wave[I].second;
      std::vector<CandRef> &Slot = Table[Id];
      // Intern this member's rows now — the commit loop is the one writer
      // of the row store, and wave order is a pure function of the graph,
      // so row ids are reproducible. Interning an unchanged candidate is
      // a dedup hit, not growth — and the steady state of a refresh
      // re-derives exactly the previous list, so each pending row is first
      // checked against the same position of the previous list (operator
      // + kid row ids is full structural identity), skipping the hash
      // probe entirely on a match.
      NewList.clear();
      NewList.reserve(Results[I].size());
      for (size_t C = 0; C < Results[I].size(); ++C) {
        const PendingCand &P = Results[I][C];
        uint32_t RowId;
        if (C < Slot.size() &&
            [&] {
              const CandRow &R = Rows[Slot[C].Row];
              if (R.ValueHash != P.ValueHash || R.Operator != P.Operator ||
                  R.KidsEnd - R.KidsBegin != P.Kids.size())
                return false;
              for (size_t KI = 0; KI < P.Kids.size(); ++KI)
                if (RowKids[R.KidsBegin + KI] != P.Kids[KI])
                  return false;
              return true;
            }())
          RowId = Slot[C].Row;
        else
          RowId = internRow(P.Operator, P.Kids.data(), P.Kids.size(),
                            P.ValueHash);
        NewList.push_back({P.Cost, RowId});
      }
      // Row-id equality is structural equality, so list comparison is O(k).
      bool Changed = false;
      bool Equal = Slot.size() == NewList.size();
      for (size_t C = 0; Equal && C < Slot.size(); ++C)
        Equal = Slot[C].Cost == NewList[C].Cost && Slot[C].Row == NewList[C].Row;
      if (!Equal) {
        Slot = NewList;
        Changed = true;
      }
      for (ENodeId PNode : G.canonicalParents(Id)) {
        EClassId P = G.nodeClass(PNode);
        if (Changed)
          enqueue(P);
        else if (Pending[P])
          Recheck.push_back(P);
      }
    }
  }
}

std::vector<RankedTerm> KBestExtractor::extract(EClassId Id) const {
  std::vector<RankedTerm> Out;
  auto It = Table.find(G.find(Id));
  if (It == Table.end())
    return Out;
  for (const CandRef &C : It->second)
    Out.push_back({materializeRow(C.Row), C.Cost});
  return Out;
}

uint32_t KBestExtractor::internRow(const Op &O, const uint32_t *Kids, size_t N,
                                   size_t ValueHash) {
  size_t H = O.hash();
  for (size_t I = 0; I < N; ++I)
    hashCombine(H, Kids[I]);
  // Avalanche before probing: payload-free operators hash to small
  // constants and kid row ids are small sequential integers, so the raw
  // combine is near-sequential — which a power-of-two linear-probe table
  // turns into one giant primary-clustering run (measured: ~640 probes
  // per insert on the nintendo graph without this).
  H = static_cast<size_t>(mix64(H));
  // Grow before probing so the insert position found below stays valid.
  if ((Rows.size() + 1) * 4 > RowIndex.size() * 3) {
    std::vector<RowSlot> Old(RowIndex.empty() ? 256 : RowIndex.size() * 2);
    Old.swap(RowIndex);
    const size_t Mask = RowIndex.size() - 1;
    for (const RowSlot &Sl : Old) {
      if (!Sl.RowPlus1)
        continue;
      size_t I = Sl.Hash & Mask;
      while (RowIndex[I].RowPlus1)
        I = (I + 1) & Mask;
      RowIndex[I] = Sl;
    }
  }
  const size_t Mask = RowIndex.size() - 1;
  size_t SlotI = H & Mask;
  for (; RowIndex[SlotI].RowPlus1; SlotI = (SlotI + 1) & Mask) {
    if (RowIndex[SlotI].Hash != H)
      continue;
    const uint32_t R = RowIndex[SlotI].RowPlus1 - 1;
    const CandRow &Row = Rows[R];
    if (Row.Operator != O || Row.KidsEnd - Row.KidsBegin != N)
      continue;
    bool Same = true;
    for (size_t I = 0; I < N; ++I) {
      if (RowKids[Row.KidsBegin + I] != Kids[I]) {
        Same = false;
        break;
      }
    }
    if (Same)
      return R;
  }
  const uint32_t Begin = static_cast<uint32_t>(RowKids.size());
  RowKids.insert(RowKids.end(), Kids, Kids + N);
  Rows.push_back(
      CandRow{O, Begin, static_cast<uint32_t>(RowKids.size()), ValueHash});
  const uint32_t Id = static_cast<uint32_t>(Rows.size() - 1);
  RowIndex[SlotI] = RowSlot{H, Id + 1};
  return Id;
}

bool KBestExtractor::rowValueEq(uint32_t A, uint32_t B) const {
  if (A == B)
    return true; // interned: structural equality is row-id equality
  const CandRow &RA = Rows[A];
  const CandRow &RB = Rows[B];
  // Value-equal rows always hash equal (the hash respects the Int/Float
  // aliasing below), so differing hashes decide without a walk.
  if (RA.ValueHash != RB.ValueHash)
    return false;
  bool ANum = RA.Operator.kind() == OpKind::Int ||
              RA.Operator.kind() == OpKind::Float;
  bool BNum = RB.Operator.kind() == OpKind::Int ||
              RB.Operator.kind() == OpKind::Float;
  if (ANum || BNum)
    return ANum && BNum &&
           RA.Operator.numericValue() == RB.Operator.numericValue();
  if (RA.Operator != RB.Operator)
    return false;
  const size_t NA = RA.KidsEnd - RA.KidsBegin;
  if (NA != RB.KidsEnd - RB.KidsBegin)
    return false;
  for (size_t I = 0; I < NA; ++I)
    if (!rowValueEq(RowKids[RA.KidsBegin + I], RowKids[RB.KidsBegin + I]))
      return false;
  return true;
}

TermPtr KBestExtractor::materializeRow(uint32_t Root) const {
  auto Hit = RowTerms.find(Root);
  if (Hit != RowTerms.end())
    return Hit->second;
  // Iterative, children-first: candidate programs are routinely deeper
  // than any safe recursion budget.
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  Stack.emplace_back(Root, 0);
  while (!Stack.empty()) {
    auto &[R, NextKid] = Stack.back();
    if (RowTerms.count(R)) {
      Stack.pop_back();
      continue;
    }
    const CandRow &Row = Rows[R];
    const uint32_t N = Row.KidsEnd - Row.KidsBegin;
    if (NextKid < N) {
      const uint32_t Kid = RowKids[Row.KidsBegin + NextKid];
      ++NextKid;
      if (!RowTerms.count(Kid))
        Stack.emplace_back(Kid, 0);
      continue;
    }
    std::vector<TermPtr> Kids;
    Kids.reserve(N);
    for (uint32_t I = 0; I < N; ++I)
      Kids.push_back(RowTerms.at(RowKids[Row.KidsBegin + I]));
    RowTerms.emplace(R, makeTerm(Row.Operator, std::move(Kids)));
    Stack.pop_back();
  }
  return RowTerms.at(Root);
}

std::vector<KBestExtractor::PendingCand>
KBestExtractor::combineClass(EClassId Id) const {
  const std::vector<ENodeId> &Nodes = G.eclass(Id).Nodes;

  // Resolved child candidate lists, flattened across nodes; a node with a
  // candidate-less child stays unusable this round (Arity == NotUsable).
  constexpr size_t NotUsable = static_cast<size_t>(-1);
  std::vector<const std::vector<CandRef> *> ChildLists;
  std::vector<std::pair<size_t, size_t>> Span(Nodes.size()); // offset, arity
  for (size_t N = 0; N < Nodes.size(); ++N) {
    const ENode &Node = G.node(Nodes[N]);
    Span[N] = {ChildLists.size(), Node.arity()};
    for (EClassId Kid : Node.children()) {
      auto It = Table.find(G.find(Kid));
      if (It == Table.end() || It->second.empty()) {
        ChildLists.resize(Span[N].first);
        Span[N].second = NotUsable;
        break;
      }
      ChildLists.push_back(&It->second);
    }
  }
  auto kidRef = [&](size_t N, size_t I, uint32_t Choice) -> const CandRef & {
    return (*ChildLists[Span[N].first + I])[Choice];
  };

  // Index combinations live in one flat append-only pool; frontier items
  // reference spans of it, so the heap shuffles 24-byte rows instead of
  // one heap-allocated vector per item.
  std::vector<uint32_t> IxPool;
  struct Item {
    double Cost;
    uint32_t NodeIdx;
    uint32_t Bump;
    uint32_t IxBegin;
    uint32_t Arity;
  };
  auto Later = [&IxPool](const Item &A, const Item &B) {
    if (A.Cost != B.Cost)
      return A.Cost > B.Cost;
    if (A.NodeIdx != B.NodeIdx)
      return A.NodeIdx > B.NodeIdx;
    // Same node, same arity: the old engines' lexicographic Ix order.
    return std::lexicographical_compare(
        IxPool.begin() + B.IxBegin, IxPool.begin() + B.IxBegin + B.Arity,
        IxPool.begin() + A.IxBegin, IxPool.begin() + A.IxBegin + A.Arity);
  };

  std::vector<double> CostScratch;
  auto comboCost = [&](size_t N, uint32_t IxBegin, size_t Arity) {
    CostScratch.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      CostScratch[I] = kidRef(N, I, IxPool[IxBegin + I]).Cost;
    return Fn.cost(G.node(Nodes[N]).Operator, CostScratch);
  };

  std::priority_queue<Item, std::vector<Item>, decltype(Later)> Frontier(
      Later);
  for (size_t N = 0; N < Nodes.size(); ++N) {
    if (Span[N].second == NotUsable)
      continue;
    const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
    IxPool.resize(IxPool.size() + Span[N].second, 0);
    Frontier.push({comboCost(N, Begin, Span[N].second),
                   static_cast<uint32_t>(N), 0, Begin,
                   static_cast<uint32_t>(Span[N].second)});
  }

  // A popped combination equals an accepted candidate iff the operator and
  // the child candidate rows match under value equality — no term is ever
  // materialized. The hash prefilter keeps the scan to (expected) zero
  // row comparisons.
  auto isDupOf = [&](const PendingCand &U, const Op &O, size_t N,
                     uint32_t IxBegin, size_t Arity) {
    bool ONum = O.kind() == OpKind::Int || O.kind() == OpKind::Float;
    bool UNum = U.Operator.kind() == OpKind::Int ||
                U.Operator.kind() == OpKind::Float;
    if (ONum || UNum)
      return ONum && UNum && O.numericValue() == U.Operator.numericValue();
    if (O != U.Operator || U.Kids.size() != Arity)
      return false;
    for (size_t I = 0; I < Arity; ++I)
      if (!rowValueEq(kidRef(N, I, IxPool[IxBegin + I]).Row, U.Kids[I]))
        return false;
    return true;
  };

  std::vector<PendingCand> Out;
  std::vector<size_t> KidHashes;
  while (!Frontier.empty() && Out.size() < K) {
    Item Top = Frontier.top();
    Frontier.pop();
    const ENode &Node = G.node(Nodes[Top.NodeIdx]);
    const size_t Arity = Top.Arity;

    // O(arity): child rows carry their value hashes already.
    KidHashes.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      KidHashes[I] =
          Rows[kidRef(Top.NodeIdx, I, IxPool[Top.IxBegin + I]).Row].ValueHash;
    size_t Hash = termValueHashNode(Node.Operator, KidHashes);
    bool Dup = false;
    for (const PendingCand &U : Out)
      if (U.ValueHash == Hash &&
          isDupOf(U, Node.Operator, Top.NodeIdx, Top.IxBegin, Arity)) {
        Dup = true;
        break;
      }
    if (!Dup) {
      std::vector<uint32_t> Kids(Arity);
      for (size_t I = 0; I < Arity; ++I)
        Kids[I] = kidRef(Top.NodeIdx, I, IxPool[Top.IxBegin + I]).Row;
      Out.push_back(PendingCand{Top.Cost, Hash, Node.Operator,
                                std::move(Kids)});
    }

    // Expand successors: bump one child index at a time, never before the
    // position this item bumped.
    for (size_t I = Top.Bump; I < Arity; ++I) {
      if (IxPool[Top.IxBegin + I] + 1 >=
          ChildLists[Span[Top.NodeIdx].first + I]->size())
        continue;
      const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
      for (size_t J = 0; J < Arity; ++J)
        IxPool.push_back(IxPool[Top.IxBegin + J]);
      ++IxPool[Begin + I];
      Frontier.push({comboCost(Top.NodeIdx, Begin, Arity), Top.NodeIdx,
                     static_cast<uint32_t>(I), Begin,
                     static_cast<uint32_t>(Arity)});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Top-k extraction: fixed-point oracle
//===----------------------------------------------------------------------===//

ReferenceKBestExtractor::ReferenceKBestExtractor(const EGraph &G,
                                                 const CostFn &Fn, size_t K)
    : G(G), Fn(Fn), K(K) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  assert(K >= 1 && "k must be positive");
  // Process classes in ascending one-best-cost order: under a monotone cost
  // function a node's children are cheaper than the node, so a single
  // ordered pass almost always reaches the fixpoint and the loop below
  // exits after the confirming pass.
  ReferenceExtractor OneBest(G, Fn);
  ClassOrder = G.classIds();
  std::stable_sort(ClassOrder.begin(), ClassOrder.end(),
                   [&](EClassId A, EClassId B) {
                     double CA = OneBest.bestCost(A).value_or(1e308);
                     double CB = OneBest.bestCost(B).value_or(1e308);
                     return CA < CB;
                   });
  // Candidate sets only improve (costs shrink or new distinct cheap terms
  // appear) and are bounded, so this terminates; the pass cap is sheer
  // paranoia for pathological graphs.
  const size_t MaxPasses = 4 * G.numClasses() + 8;
  for (size_t Pass = 0; Pass < MaxPasses; ++Pass)
    if (!this->pass())
      break;
}

bool ReferenceKBestExtractor::pass() {
  bool Changed = false;
  for (EClassId Id : ClassOrder) {
    std::vector<ExtractCandidate> New = combineClass(G, Fn, K, Id, Table);
    std::vector<ExtractCandidate> &Slot = Table[Id];
    if (listsEqual(Slot, New))
      continue;
    Slot = std::move(New);
    Changed = true;
  }
  return Changed;
}

std::vector<RankedTerm> ReferenceKBestExtractor::extract(EClassId Id) const {
  std::vector<RankedTerm> Out;
  auto It = Table.find(G.find(Id));
  if (It == Table.end())
    return Out;
  for (const ExtractCandidate &C : It->second)
    Out.push_back({C.T, C.Cost});
  return Out;
}
