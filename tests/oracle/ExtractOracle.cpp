//===-- tests/oracle/ExtractOracle.cpp - Extraction oracles ---------------===//
//
// Fixed-point oracles for egraph/Extract.{h,cpp}. The k-best oracle builds
// real terms at every step; the engine under test works on rows. The two
// share only the candidate order and the value-level dedup semantics.
//
//===----------------------------------------------------------------------===//

#include "ExtractOracle.h"

#include <cassert>
#include <queue>

using namespace shrinkray;

namespace {

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
/// over all the class's e-nodes, popping combinations in ascending (cost,
/// node index, combination index) order and deduplicating by value.
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
  // bump positions >= Bump, which generates every combination exactly once.
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
  // the child candidate terms match under value equality.
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

  std::vector<ExtractCandidate> Out;
  std::vector<size_t> KidHashes;
  while (!Frontier.empty() && Out.size() < K) {
    Item Top = Frontier.top();
    Frontier.pop();
    const ENode &Node = G.node(Nodes[Top.NodeIdx]);
    const size_t Arity = Top.Ix.size();

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
      std::vector<TermPtr> Kids(Arity);
      for (size_t I = 0; I < Arity; ++I)
        Kids[I] = kidCand(Top.NodeIdx, I, Top.Ix).T;
      Out.push_back({Top.Cost, makeTerm(Node.Operator, std::move(Kids)),
                     Hash});
    }

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

/// Cost of \p Node under the oracle's cost table, or nullopt while any
/// child is unextractable.
std::optional<double>
nodeCost(const EGraph &G, const CostFn &Fn,
         const std::unordered_map<EClassId, double> &Costs, const ENode &Node) {
  std::vector<double> Kids;
  for (EClassId Kid : Node.children()) {
    auto It = Costs.find(G.find(Kid));
    if (It == Costs.end())
      return std::nullopt;
    Kids.push_back(It->second);
  }
  return Fn.cost(Node.Operator, Kids);
}

} // namespace

//===----------------------------------------------------------------------===//
// One-best oracle
//===----------------------------------------------------------------------===//

ReferenceExtractor::ReferenceExtractor(const EGraph &G, const CostFn &Fn)
    : G(G) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  // Fixpoint: (cost, choice) pairs only decrease and are bounded below, so
  // this terminates. Same tie-break as the worklist engine, so the unique
  // fixpoint — and therefore every extracted term — is bit-identical.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (EClassId Id : G.classIds()) {
      for (ENodeId N : G.eclass(Id).Nodes) {
        const ENode &Node = G.node(N);
        std::optional<double> C = nodeCost(G, Fn, Costs, Node);
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
  Id = G.find(Id);
  auto Hit = BuildMemo.find(Id);
  if (Hit != BuildMemo.end())
    return Hit->second;
  const ENode &Node = Choices.at(Id);
  std::vector<TermPtr> Kids;
  Kids.reserve(Node.arity());
  for (EClassId Kid : Node.children())
    Kids.push_back(build(Kid));
  TermPtr T = makeTerm(Node.Operator, std::move(Kids));
  BuildMemo.emplace(Id, T);
  return T;
}

//===----------------------------------------------------------------------===//
// Top-k oracle
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
