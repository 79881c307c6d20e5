//===-- egraph/Extract.cpp - Cost-based extraction ------------------------===//
//
// The one-best worklist engine and the lazy k-best engine. Their
// fixed-point oracles live in the test library (tests/oracle), which pins
// both engines bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "egraph/Extract.h"

#include <cassert>
#include <limits>

using namespace shrinkray;

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

/// Sentinel for "no finite-cost term" in the one-best cost table. Cost
/// functions are finite by contract (monotone sums/maxes of finite leaf
/// costs), so infinity never denotes a real cost.
constexpr double UnsetCost = std::numeric_limits<double>::infinity();

bool isNumeric(const Op &O) {
  return O.kind() == OpKind::Int || O.kind() == OpKind::Float;
}

} // namespace

int shrinkray::enodeCompare(const EGraph &G, const ENode &A, const ENode &B) {
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

//===----------------------------------------------------------------------===//
// One-best extraction
//===----------------------------------------------------------------------===//

Extractor::Extractor(const EGraph &G, const CostFn &Fn)
    : G(G), Fn(Fn), Costs(G.numIds(), UnsetCost) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  std::vector<EClassId> WL;
  // Dense membership bytes (indexed by class id): the worklist churns
  // through every cost improvement.
  std::vector<uint8_t> InWL(G.numIds(), 0);
  auto push = [&](EClassId Id) {
    if (!InWL[Id]) {
      InWL[Id] = 1;
      WL.push_back(Id);
    }
  };
  // Derive every class from its node set, then propagate improvements
  // upward: a cost change at a class can only be observed by the e-nodes
  // that reference it, i.e. its parent index.
  for (EClassId Id : G.classIds()) {
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

bool Extractor::relax(EClassId Id, const ENode &Node) {
  KidCostScratch.clear();
  for (EClassId Kid : Node.children()) {
    const double C = Costs[G.find(Kid)];
    if (!(C < UnsetCost))
      return false;
    KidCostScratch.push_back(C);
  }
  const double C = Fn.cost(Node.Operator, KidCostScratch);
  // A non-finite candidate cost (a degenerate cost function) cannot beat
  // or tie the UnsetCost sentinel meaningfully; treat it as unextractable.
  if (!(C < UnsetCost))
    return false;
  double &Slot = Costs[Id];
  // Equal cost: adopt the candidate only if it is the smaller e-node, so
  // the final choice is the unique (cost, node) minimum. Stored forms may
  // be stale; enodeCompare resolves children through find().
  if (C < Slot ||
      (C == Slot && enodeCompare(G, Node, Choices.at(Id)) < 0)) {
    Slot = C;
    Choices.insert_or_assign(Id, Node);
    return true;
  }
  return false;
}

std::optional<double> Extractor::bestCost(EClassId Id) const {
  const double C = Costs[G.find(Id)];
  if (!(C < UnsetCost))
    return std::nullopt;
  return C;
}

TermPtr Extractor::extract(EClassId Id) const { return build(G.find(Id)); }

const ENode *Extractor::choiceNode(EClassId Id) const {
  auto It = Choices.find(G.find(Id));
  return It == Choices.end() ? nullptr : &It->second;
}

TermPtr Extractor::build(EClassId Id) const {
  Id = G.find(Id);
  auto Hit = BuildMemo.find(Id);
  if (Hit != BuildMemo.end())
    return Hit->second;
  auto It = Choices.find(Id);
  assert(It != Choices.end() && "extracting from a class with no finite cost");
  const ENode &Node = It->second;
  std::vector<TermPtr> Kids;
  Kids.reserve(Node.arity());
  for (EClassId Kid : Node.children())
    Kids.push_back(build(Kid));
  TermPtr T = makeTerm(Node.Operator, std::move(Kids));
  BuildMemo.emplace(Id, T);
  return T;
}

//===----------------------------------------------------------------------===//
// Top-k extraction
//===----------------------------------------------------------------------===//
//
// A class's candidate list is its combination stream — every (e-node,
// child candidate indices) in ascending (cost, node index, lexicographic
// indices) order — with value-equal programs dropped and the rest cut at
// k. fixNext() grows one list by one candidate: it pops the class's
// frontier heap, and a popped combination that names a child candidate
// not fixed yet sends a request to that child first. A successor bumps one
// child index, so it is never cheaper than the combination it came from;
// it enters the heap keyed by that combination's cost, a lower bound, and
// gets its exact cost when it reaches the top. Every combination still to
// come descends from one in the heap, so an exact top is the class's next
// combination.
//
// Requests never wait in a cycle, that is, no top waits on a class that is
// already on the request stack. On a rebuilt graph value-equal programs
// share a class, so the only duplicates are numeric leaves, which have no
// successors. So a top that waits is one of two kinds:
//  * a seed (all child indices 0) waiting on a child's first candidate.
//    That child has popped nothing yet, so its own top is a seed whose key
//    is its one-best cost, strictly below the cost of the waiting seed;
//  * a successor of a fixed candidate P, waiting on the child candidate
//    after the one P used. P costs strictly more than the child's last
//    fixed candidate, and the class's own last fixed candidate costs at
//    least as much as P.
// Past a seed wait, every class down the stack has no fixed candidate, so
// a cycle holds waits of one kind only, and one-best costs (seeds) or
// last fixed costs (successors) would fall strictly all the way round.

KBestExtractor::KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K,
                               size_t)
    : G(G), Fn(Fn), K(K), OneBest(G, Fn), StateOf(G.numIds(), 0) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  assert(K >= 1 && "k must be positive");
}

const ENode &KBestExtractor::itemNode(const ClassState &S,
                                      const Item &It) const {
  return G.node(G.eclass(S.Id).Nodes[It.NodeIdx]);
}

bool KBestExtractor::laterThan(const Item &A, const Item &B) const {
  if (A.Key != B.Key)
    return A.Key > B.Key;
  if (A.NodeIdx != B.NodeIdx)
    return A.NodeIdx > B.NodeIdx;
  // Same node, same arity: lexicographic child indices.
  return std::lexicographical_compare(
      IxPool.begin() + B.IxBegin, IxPool.begin() + B.IxBegin + B.Arity,
      IxPool.begin() + A.IxBegin, IxPool.begin() + A.IxBegin + A.Arity);
}

void KBestExtractor::pushItem(ClassState &S, const Item &It) {
  S.Heap.push_back(It);
  std::push_heap(S.Heap.begin(), S.Heap.end(),
                 [this](const Item &A, const Item &B) {
                   return laterThan(A, B);
                 });
}

KBestExtractor::Item KBestExtractor::popItem(ClassState &S) {
  std::pop_heap(S.Heap.begin(), S.Heap.end(),
                [this](const Item &A, const Item &B) {
                  return laterThan(A, B);
                });
  Item It = S.Heap.back();
  S.Heap.pop_back();
  return It;
}

KBestExtractor::ClassState &KBestExtractor::state(EClassId Id) {
  if (uint32_t Slot = StateOf[Id])
    return States[Slot - 1];
  ClassState &S = States.emplace_back();
  StateOf[Id] = static_cast<uint32_t>(States.size());
  S.Id = Id;
  // One combination per e-node whose children are all extractable, every
  // child index 0. Its key, the cost over the children's one-best costs,
  // is the exact cost (a class's first candidate costs its one-best
  // cost); it stays unconfirmed until those candidates are fixed.
  const std::vector<ENodeId> &Nodes = G.eclass(Id).Nodes;
  std::vector<double> Kids;
  for (uint32_t N = 0; N < Nodes.size(); ++N) {
    const ENode &Node = G.node(Nodes[N]);
    Kids.clear();
    for (EClassId Kid : Node.children()) {
      std::optional<double> C = OneBest.bestCost(Kid);
      if (!C)
        break;
      Kids.push_back(*C);
    }
    if (Kids.size() != Node.arity())
      continue;
    const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
    IxPool.resize(Begin + Node.arity(), 0);
    pushItem(S, {Fn.cost(Node.Operator, Kids), N, 0, Begin,
                 static_cast<uint32_t>(Node.arity()), Node.arity() == 0});
  }
  return S;
}

double KBestExtractor::exactCost(const ClassState &S, const Item &It) {
  const ENode &Node = itemNode(S, It);
  CostScratch.resize(It.Arity);
  for (uint32_t I = 0; I < It.Arity; ++I)
    CostScratch[I] =
        state(G.find(Node.child(I))).List[IxPool[It.IxBegin + I]].Cost;
  return Fn.cost(Node.Operator, CostScratch);
}

std::vector<RankedTerm> KBestExtractor::extract(EClassId Id) {
  ClassState &S = state(G.find(Id));
  while (!S.Done)
    fixNext(S);
  std::vector<RankedTerm> Out;
  Out.reserve(S.List.size());
  for (const CandRef &C : S.List)
    Out.push_back({materializeRow(C.Row), C.Cost});
  return Out;
}

void KBestExtractor::fixNext(ClassState &Root) {
  // The stack holds the classes waiting for their next candidate; each
  // class is on it at most once.
  auto push = [this](ClassState &S) {
    S.OnStack = true;
    Stack.push_back(&S);
  };
  auto pop = [this] {
    Stack.back()->OnStack = false;
    Stack.pop_back();
  };
  push(Root);
  while (!Stack.empty()) {
    ClassState &S = *Stack.back();
    if (S.Heap.empty())
      S.Done = true;
    if (S.Done) {
      pop();
      continue;
    }
    // The first child candidate the top names that is not fixed yet.
    const Item &Top = S.Heap.front();
    const ENode &Node = itemNode(S, Top);
    ClassState *Wait = nullptr;
    bool Missing = false;
    for (uint32_t I = 0; I < Top.Arity; ++I) {
      ClassState &Kid = state(G.find(Node.child(I)));
      const uint32_t Need = IxPool[Top.IxBegin + I];
      if (Need < Kid.List.size())
        continue;
      assert(Need == Kid.List.size() && "combination skips a candidate");
      if (Kid.Done)
        Missing = true; // the child has no such candidate
      else
        Wait = &Kid;
      break;
    }
    // A missing candidate drops the combination and, with it, every
    // successor, since each names that candidate or a later one of the
    // same child. Waiting on a class already on the stack cannot happen
    // (see the top of this section); should a graph break the premises,
    // the combination is dropped rather than waited on forever.
    assert(!(Wait && Wait->OnStack) && "k-best requests ran in a cycle");
    if (Missing || (Wait && Wait->OnStack)) {
      popItem(S);
    } else if (Wait) {
      push(*Wait);
    } else if (!Top.Exact) {
      Item It = popItem(S);
      const double Cost = exactCost(S, It);
      assert(Cost >= It.Key && "frontier key above the exact cost");
      It.Key = Cost;
      It.Exact = true;
      pushItem(S, It);
    } else if (acceptTop(S)) {
      pop();
    }
  }
}

bool KBestExtractor::acceptTop(ClassState &S) {
  const Item Top = popItem(S);
  const ENode &Node = itemNode(S, Top);
  const uint32_t Arity = Top.Arity;
  const uint32_t KidsBegin = static_cast<uint32_t>(RowKids.size());
  HashScratch.resize(Arity);
  for (uint32_t I = 0; I < Arity; ++I) {
    const uint32_t Row =
        state(G.find(Node.child(I))).List[IxPool[Top.IxBegin + I]].Row;
    RowKids.push_back(Row);
    HashScratch[I] = Rows[Row].ValueHash;
  }
  const size_t Hash = termValueHashNode(Node.Operator, HashScratch);

  // A combination equals a fixed candidate iff the operators and the child
  // rows match under value equality; the hash prefilter keeps the scan to
  // (expected) zero row comparisons.
  auto isDupOf = [&](const CandRow &U) {
    if (U.ValueHash != Hash)
      return false;
    const bool ONum = isNumeric(Node.Operator), UNum = isNumeric(U.Operator);
    if (ONum || UNum)
      return ONum && UNum &&
             Node.Operator.numericValue() == U.Operator.numericValue();
    if (Node.Operator != U.Operator || U.KidsEnd - U.KidsBegin != Arity)
      return false;
    for (uint32_t I = 0; I < Arity; ++I)
      if (!rowValueEq(RowKids[KidsBegin + I], RowKids[U.KidsBegin + I]))
        return false;
    return true;
  };
  bool Dup = false;
  for (const CandRef &C : S.List)
    if (isDupOf(Rows[C.Row])) {
      Dup = true;
      break;
    }
  if (Dup) {
    RowKids.resize(KidsBegin);
  } else {
    Rows.push_back({Node.Operator, KidsBegin,
                    static_cast<uint32_t>(RowKids.size()), Hash});
    S.List.push_back({Top.Key, static_cast<uint32_t>(Rows.size() - 1)});
    if (S.List.size() == K) {
      S.Done = true;
      S.Heap = {};
      return true;
    }
  }

  // Successors: bump one child index at a time, never before the position
  // this combination bumped, so each combination is generated once.
  for (uint32_t I = Top.Bump; I < Arity; ++I) {
    const uint32_t Need = IxPool[Top.IxBegin + I] + 1;
    if (Need >= K)
      continue;
    const ClassState &Kid = state(G.find(Node.child(I)));
    const bool Known = Need < Kid.List.size();
    if (!Known && Kid.Done)
      continue;
    const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
    for (uint32_t J = 0; J < Arity; ++J) {
      const uint32_t Ix = IxPool[Top.IxBegin + J];
      IxPool.push_back(Ix);
    }
    ++IxPool[Begin + I];
    Item Next{Top.Key, Top.NodeIdx, I, Begin, Arity, Known};
    if (Known)
      Next.Key = exactCost(S, Next);
    pushItem(S, Next);
  }
  return !Dup;
}

bool KBestExtractor::rowValueEq(uint32_t A, uint32_t B) const {
  if (A == B)
    return true;
  // Iterative: candidate programs are routinely deeper than any safe
  // recursion budget. Value-equal rows always hash equal (the hash
  // respects Int/Float aliasing), so differing hashes decide early.
  std::vector<std::pair<uint32_t, uint32_t>> Work{{A, B}};
  while (!Work.empty()) {
    const auto [X, Y] = Work.back();
    Work.pop_back();
    if (X == Y)
      continue;
    const CandRow &RX = Rows[X];
    const CandRow &RY = Rows[Y];
    if (RX.ValueHash != RY.ValueHash)
      return false;
    const bool XNum = isNumeric(RX.Operator), YNum = isNumeric(RY.Operator);
    if (XNum || YNum) {
      if (!(XNum && YNum &&
            RX.Operator.numericValue() == RY.Operator.numericValue()))
        return false;
      continue;
    }
    if (RX.Operator != RY.Operator ||
        RX.KidsEnd - RX.KidsBegin != RY.KidsEnd - RY.KidsBegin)
      return false;
    for (uint32_t I = 0; I < RX.KidsEnd - RX.KidsBegin; ++I)
      Work.emplace_back(RowKids[RX.KidsBegin + I], RowKids[RY.KidsBegin + I]);
  }
  return true;
}

TermPtr KBestExtractor::materializeRow(uint32_t Root) {
  auto Hit = RowTerms.find(Root);
  if (Hit != RowTerms.end())
    return Hit->second;
  // Iterative, children-first: candidate programs are routinely deeper
  // than any safe recursion budget.
  std::vector<std::pair<uint32_t, uint32_t>> Work;
  Work.emplace_back(Root, 0);
  while (!Work.empty()) {
    auto &[R, NextKid] = Work.back();
    if (RowTerms.count(R)) {
      Work.pop_back();
      continue;
    }
    const CandRow &Row = Rows[R];
    const uint32_t N = Row.KidsEnd - Row.KidsBegin;
    if (NextKid < N) {
      const uint32_t Kid = RowKids[Row.KidsBegin + NextKid];
      ++NextKid;
      if (!RowTerms.count(Kid))
        Work.emplace_back(Kid, 0);
      continue;
    }
    std::vector<TermPtr> Kids;
    Kids.reserve(N);
    for (uint32_t I = 0; I < N; ++I)
      Kids.push_back(RowTerms.at(RowKids[Row.KidsBegin + I]));
    RowTerms.emplace(R, makeTerm(Row.Operator, std::move(Kids)));
    Work.pop_back();
  }
  return RowTerms.at(Root);
}
