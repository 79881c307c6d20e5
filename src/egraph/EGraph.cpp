//===-- egraph/EGraph.cpp - E-graph with congruence closure ---------------===//

#include "egraph/EGraph.h"

#include "linalg/Vec3.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

using namespace shrinkray;

ENode EGraph::canonicalize(const ENode &Node) const {
  ENode Out = Node;
  for (EClassId &Kid : Out.Children)
    Kid = UF.find(Kid);
  return Out;
}

EClassId EGraph::add(ENode Node) {
  Node = canonicalize(Node);
  auto It = Memo.find(Node);
  if (It != Memo.end())
    return UF.find(It->second);

  EClassId Id = UF.makeSet();
  touch(Id);
  auto C = std::make_unique<EClass>();
  C->Id = Id;
  C->Nodes.push_back(Node);
  C->NodeGens.push_back(Gen);
  C->Kinds = opKindBit(Node.kind());
  C->Data = makeData(Node);
  for (EClassId Kid : Node.Children)
    eclassMut(Kid).Parents.emplace_back(Node, Id);
  Classes.push_back(std::move(C));
  assert(Classes.size() == UF.size() && "class table out of sync");
  ++LiveClasses;
  ++LiveNodes;
  OpIndex[Node.Operator].push_back(Id);
  Memo.emplace(std::move(Node), Id);
  modify(Id);
  return UF.find(Id);
}

namespace {

EClassId addTermRec(EGraph &G, const TermPtr &T,
                    std::unordered_map<const Term *, EClassId> &Memo) {
  auto Hit = Memo.find(T.get());
  if (Hit != Memo.end())
    return Hit->second;
  std::vector<EClassId> Kids;
  Kids.reserve(T->numChildren());
  for (const TermPtr &Kid : T->children())
    Kids.push_back(addTermRec(G, Kid, Memo));
  EClassId Id = G.add(ENode(T->op(), std::move(Kids)));
  // Constant folding in add()/modify() may merge classes mid-call, leaving
  // memoized ids stale. That is safe: a memoized id is only ever reused as a
  // child of a later ENode, and add() canonicalizes child ids through find().
  Memo.emplace(T.get(), Id);
  return Id;
}

} // namespace

EClassId EGraph::addTerm(const TermPtr &T) {
  std::unordered_map<const Term *, EClassId> Memo;
  return addTermRec(*this, T, Memo);
}

std::pair<EClassId, bool> EGraph::merge(EClassId A, EClassId B) {
  A = UF.find(A);
  B = UF.find(B);
  if (A == B)
    return {A, false};

  // Keep the class with more parents as the root: repair() revisits the
  // loser's parents, so this minimizes work.
  if (Classes[A]->Parents.size() < Classes[B]->Parents.size())
    std::swap(A, B);

  UF.unite(A, B);
  EClass &Root = *Classes[A];
  std::unique_ptr<EClass> Loser = std::move(Classes[B]);

  for (ENode &N : Loser->Nodes)
    Root.Nodes.push_back(std::move(N));
  Root.NodeGens.append(Loser->NodeGens);
  Root.Kinds |= Loser->Kinds;
  for (auto &P : Loser->Parents)
    Root.Parents.push_back(std::move(P));
  bool DataChanged = joinData(Root.Data, Loser->Data);

  // The loser's op-index entries stay put: B now find()s to A, which owns
  // the loser's nodes, so each entry still names a class containing its
  // head. Stamp the winner so incremental searches revisit the union.
  --LiveClasses;
  touch(A);

  Worklist.push_back(A);
  if (DataChanged)
    modify(A);
  return {A, true};
}

void EGraph::rebuild() {
  while (!Worklist.empty()) {
    std::vector<EClassId> Todo;
    Todo.swap(Worklist);
    // Canonicalize and dedupe the batch.
    for (EClassId &Id : Todo)
      Id = UF.find(Id);
    std::sort(Todo.begin(), Todo.end());
    Todo.erase(std::unique(Todo.begin(), Todo.end()), Todo.end());
    for (EClassId Id : Todo)
      repair(UF.find(Id));
  }
}

void EGraph::repair(EClassId Id) {
  EClass &C = *Classes[UF.find(Id)];

  // Re-canonicalize parent e-nodes, restoring the hash-consing invariant and
  // discovering congruent parents to merge.
  std::vector<std::pair<ENode, EClassId>> OldParents;
  OldParents.swap(C.Parents);
  for (auto &[PNode, PClass] : OldParents) {
    Memo.erase(PNode);
    ENode Canon = canonicalize(PNode);
    auto It = Memo.find(Canon);
    if (It != Memo.end()) {
      // Congruence: two parents became identical.
      merge(PClass, It->second);
      It->second = UF.find(PClass);
    } else {
      Memo.emplace(Canon, UF.find(PClass));
    }
    PNode = std::move(Canon);
    PClass = UF.find(PClass);
  }

  // Dedupe parents; duplicates that became congruent are merged.
  std::unordered_map<ENode, EClassId, ENodeHash> Seen;
  for (auto &[PNode, PClass] : OldParents) {
    ENode Canon = canonicalize(PNode);
    EClassId PCanon = UF.find(PClass);
    auto [It, Inserted] = Seen.emplace(std::move(Canon), PCanon);
    if (!Inserted) {
      merge(It->second, PCanon);
      It->second = UF.find(It->second);
    }
  }

  // Push analysis data upward: a parent may now fold to a constant.
  for (auto &[PNode, PClass] : Seen) {
    EClassId PCanon = UF.find(PClass);
    AnalysisData New = makeData(PNode);
    EClass &Parent = *Classes[PCanon];
    if (joinData(Parent.Data, New)) {
      // Data changes can flip rule guards (isConst etc.), so they must
      // make the class visible to incremental searches.
      touch(PCanon);
      modify(PCanon);
      Worklist.push_back(PCanon);
    }
  }

  // Re-fetch: the merges above may have merged this class with another
  // (self-referential nodes make that possible), invalidating references and
  // possibly appending new parent entries that must be kept. Those appended
  // entries are deduped by a later repair (the merge queued one).
  EClass &C2 = *Classes[UF.find(Id)];
  for (auto &[PNode, PClass] : Seen)
    C2.Parents.emplace_back(PNode, UF.find(PClass));

  // Canonicalize and dedupe this class's own nodes. A surviving node keeps
  // its first occurrence's stamp: two nodes only collapse after a child
  // merge, which touched that child after every live search cursor, so
  // the root filter rescans the survivor whichever stamp it carries.
  // Compacts in place: slot Keep <= I is already read when it is written.
  std::unordered_set<ENode, ENodeHash> NodeSet;
  size_t Keep = 0;
  for (size_t I = 0; I < C2.Nodes.size(); ++I) {
    ENode Canon = canonicalize(C2.Nodes[I]);
    if (NodeSet.insert(Canon).second) {
      C2.Nodes[Keep] = std::move(Canon);
      C2.NodeGens.set(Keep, C2.NodeGens[I]);
      ++Keep;
    }
  }
  assert(LiveNodes >= C2.Nodes.size() - Keep);
  LiveNodes -= C2.Nodes.size() - Keep;
  C2.Nodes.erase(C2.Nodes.begin() + static_cast<std::ptrdiff_t>(Keep),
                 C2.Nodes.end());
  C2.NodeGens.truncate(Keep);
}

std::vector<EClassId> EGraph::classIds() const {
  std::vector<EClassId> Ids;
  for (size_t I = 0; I < Classes.size(); ++I)
    if (Classes[I])
      Ids.push_back(static_cast<EClassId>(I));
  return Ids;
}

const std::vector<EClassId> &EGraph::classesWithOp(const Op &O) const {
  static const std::vector<EClassId> Empty;
  auto It = OpIndex.find(O);
  if (It == OpIndex.end())
    return Empty;
  // Compact in place: canonicalize, sort, dedupe. Entries never need to be
  // filtered out — a class only ever gains heads (merge unions node sets;
  // repair dedup keeps one copy of each node) — so after canonicalization
  // every id names a class containing the head.
  std::vector<EClassId> &Ids = It->second;
  for (EClassId &Id : Ids)
    Id = UF.find(Id);
  std::sort(Ids.begin(), Ids.end());
  Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
  return Ids;
}

const std::vector<std::pair<ENode, EClassId>> &
EGraph::canonicalParents(EClassId Id) const {
  assert(!isDirty() && "parent query on an unrebuilt graph");
  // Compact in place: canonicalize each entry and drop duplicates, keeping
  // first-occurrence order (deterministic given the append order). On a
  // clean graph the memo holds canonical forms, so rewriting an entry to
  // its canonical form is exactly what the next repair() would do anyway.
  // A generation stamp skips recompaction while the graph is unchanged
  // (extraction queries each class's parents once per cost improvement).
  EClass &C = *Classes[UF.find(Id)];
  std::vector<std::pair<ENode, EClassId>> &Ps = C.Parents;
  if (C.ParentsCompactedGen == Gen)
    return Ps;
  C.ParentsCompactedGen = Gen;
  std::unordered_map<ENode, EClassId, ENodeHash> Seen;
  size_t Keep = 0;
  for (auto &[PNode, PClass] : Ps) {
    ENode Canon = canonicalize(PNode);
    EClassId PCanon = UF.find(PClass);
    auto [It, Inserted] = Seen.emplace(Canon, PCanon);
    if (!Inserted) {
      assert(It->second == PCanon &&
             "congruent parents in distinct classes on a clean graph");
      continue;
    }
    Ps[Keep++] = {std::move(Canon), PCanon};
  }
  Ps.erase(Ps.begin() + static_cast<std::ptrdiff_t>(Keep), Ps.end());
  return Ps;
}

std::vector<EClassId> EGraph::takeDirtySince(uint64_t Since) const {
  assert(!isDirty() && "dirty query on an unrebuilt graph");
  // A cursor behind the compaction floor can no longer be answered from
  // the log; every class is a sound (if maximal) answer. Leased cursors
  // never land here — compactDirtyLog keeps their suffixes alive.
  if (Since < DirtyFloor)
    return classIds();
  // Seed with the touch-log suffix after Since (gens are strictly
  // increasing, so the boundary is a binary search), then close upward
  // through parent pointers: any ancestor can root a match consuming the
  // change.
  std::vector<EClassId> Stack;
  std::unordered_set<EClassId> InSet;
  auto First = std::upper_bound(
      DirtyLog.begin(), DirtyLog.end(), Since,
      [](uint64_t S, const std::pair<uint64_t, EClassId> &E) {
        return S < E.first;
      });
  for (auto It = First; It != DirtyLog.end(); ++It) {
    EClassId Canon = UF.find(It->second);
    if (InSet.insert(Canon).second)
      Stack.push_back(Canon);
  }
  while (!Stack.empty()) {
    EClassId Id = Stack.back();
    Stack.pop_back();
    for (const auto &[PNode, PClass] : eclass(Id).Parents) {
      (void)PNode;
      EClassId PCanon = UF.find(PClass);
      if (InSet.insert(PCanon).second)
        Stack.push_back(PCanon);
    }
  }
  std::vector<EClassId> Out(InSet.begin(), InSet.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

void EGraph::compactDirtyLog(uint64_t MinLiveGen) {
  for (const auto &[Lease, Gen_] : DirtyLeases)
    MinLiveGen = std::min(MinLiveGen, Gen_);
  if (MinLiveGen <= DirtyFloor)
    return; // nothing new to drop
  auto End = std::upper_bound(
      DirtyLog.begin(), DirtyLog.end(), MinLiveGen,
      [](uint64_t G_, const std::pair<uint64_t, EClassId> &E) {
        return G_ < E.first;
      });
  DirtyLog.erase(DirtyLog.begin(), End);
  DirtyFloor = MinLiveGen;
}

uint64_t EGraph::acquireDirtyLease(uint64_t Gen_) const {
  uint64_t Lease = NextDirtyLease++;
  DirtyLeases.emplace(Lease, Gen_);
  return Lease;
}

void EGraph::updateDirtyLease(uint64_t Lease, uint64_t Gen_) const {
  auto It = DirtyLeases.find(Lease);
  assert(It != DirtyLeases.end() && "unknown dirty lease");
  assert(It->second <= Gen_ && "dirty lease must advance monotonically");
  It->second = Gen_;
}

void EGraph::releaseDirtyLease(uint64_t Lease) const {
  size_t Erased = DirtyLeases.erase(Lease);
  (void)Erased;
  assert(Erased == 1 && "releasing an unknown dirty lease");
}

void EGraph::prepareForConcurrentReads() const {
  assert(!isDirty() && "prepare on an unrebuilt graph");
  if (PreparedGen == Gen)
    return;
  // Only the union-find needs quiescing: every write-capable const query
  // the concurrent readers use bottoms out in find()'s path halving,
  // which compressAll leaves nothing to do. The op-index and parent-index
  // compactions stay coordinator-only (see the header contract).
  UF.compressAll();
  PreparedGen = Gen;
}

std::optional<EClassId> EGraph::lookup(const ENode &Node) const {
  auto It = Memo.find(canonicalize(Node));
  if (It == Memo.end())
    return std::nullopt;
  return UF.find(It->second);
}

bool EGraph::representsTerm(EClassId Id, const TermPtr &T) const {
  TermMemo Cache;
  return representsTermRec(Id, T, Cache);
}

bool EGraph::representsTermRec(EClassId Id, const TermPtr &T,
                               TermMemo &Cache) const {
  Id = UF.find(Id);
  auto &PerClass = Cache[Id];
  auto Hit = PerClass.find(T.get());
  if (Hit != PerClass.end())
    return Hit->second;
  bool Result = false;
  const EClass &C = eclass(Id);
  for (const ENode &N : C.Nodes) {
    if (N.Operator != T->op() || N.Children.size() != T->numChildren())
      continue;
    bool AllMatch = true;
    for (size_t I = 0; I < N.Children.size(); ++I) {
      if (!representsTermRec(N.Children[I], T->child(I), Cache)) {
        AllMatch = false;
        break;
      }
    }
    if (AllMatch) {
      Result = true;
      break;
    }
  }
  Cache[Id].emplace(T.get(), Result);
  return Result;
}

bool EGraph::representsTermApprox(EClassId Id, const TermPtr &T,
                                  double Eps) const {
  TermMemo Cache;
  return representsTermApproxRec(Id, T, Eps, Cache);
}

bool EGraph::representsTermApproxRec(EClassId Id, const TermPtr &T,
                                     double Eps, TermMemo &Cache) const {
  Id = UF.find(Id);
  if (T->kind() == OpKind::Float || T->kind() == OpKind::Int) {
    const AnalysisData &D = data(Id);
    return D.NumConst &&
           std::fabs(*D.NumConst - T->op().numericValue()) <= Eps;
  }
  auto &PerClass = Cache[Id];
  auto Hit = PerClass.find(T.get());
  if (Hit != PerClass.end())
    return Hit->second;
  bool Result = false;
  const EClass &C = eclass(Id);
  for (const ENode &N : C.Nodes) {
    if (N.Operator != T->op() || N.Children.size() != T->numChildren())
      continue;
    bool AllMatch = true;
    for (size_t I = 0; I < N.Children.size(); ++I) {
      if (!representsTermApproxRec(N.Children[I], T->child(I), Eps, Cache)) {
        AllMatch = false;
        break;
      }
    }
    if (AllMatch) {
      Result = true;
      break;
    }
  }
  Cache[Id].emplace(T.get(), Result);
  return Result;
}

AnalysisData EGraph::makeData(const ENode &Node) const {
  AnalysisData Out;
  const Op &O = Node.Operator;
  switch (O.kind()) {
  case OpKind::Int:
    Out.NumConst = static_cast<double>(O.intValue());
    Out.NumIsInt = true;
    return Out;
  case OpKind::Float:
    Out.NumConst = O.floatValue();
    Out.NumIsInt = false;
    return Out;
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div: {
    const AnalysisData &A = data(Node.Children[0]);
    const AnalysisData &B = data(Node.Children[1]);
    if (!A.NumConst || !B.NumConst)
      return Out;
    double X = *A.NumConst, Y = *B.NumConst;
    switch (O.kind()) {
    case OpKind::Add:
      Out.NumConst = X + Y;
      break;
    case OpKind::Sub:
      Out.NumConst = X - Y;
      break;
    case OpKind::Mul:
      Out.NumConst = X * Y;
      break;
    default:
      if (Y == 0.0)
        return Out;
      Out.NumConst = X / Y;
      break;
    }
    Out.NumIsInt = A.NumIsInt && B.NumIsInt && O.kind() != OpKind::Div &&
                   *Out.NumConst == std::floor(*Out.NumConst);
    return Out;
  }
  case OpKind::Sin:
  case OpKind::Cos: {
    const AnalysisData &A = data(Node.Children[0]);
    if (!A.NumConst)
      return Out;
    Out.NumConst = O.kind() == OpKind::Sin ? std::sin(degToRad(*A.NumConst))
                                           : std::cos(degToRad(*A.NumConst));
    return Out;
  }
  default:
    return Out;
  }
}

bool EGraph::joinData(AnalysisData &Into, const AnalysisData &From) {
  if (!From.NumConst)
    return false;
  if (!Into.NumConst) {
    Into = From;
    return true;
  }
  // Two constants merged into one class must agree (up to roundoff noise
  // introduced by rewrites; tolerance mirrors the solver epsilon).
  assert(std::fabs(*Into.NumConst - *From.NumConst) <= 1e-6 &&
         "merged classes with distinct constants");
  if (!Into.NumIsInt && From.NumIsInt) {
    Into.NumIsInt = true; // prefer the integer-typed witness
    return true;
  }
  return false;
}

void EGraph::modify(EClassId Id) {
  Id = UF.find(Id);
  const AnalysisData D = Classes[Id]->Data; // copy: add() may reallocate
  if (!D.NumConst)
    return;
  // Materialize the constant as a literal leaf in this class so that
  // extraction can always choose the folded form. Integral values get an
  // Int leaf regardless of provenance, which also unifies Float(k) with
  // Int(k) classes (numeric classes are keyed by value).
  bool Integral = *D.NumConst == std::floor(*D.NumConst) &&
                  std::fabs(*D.NumConst) < 9e15;
  Op Literal = Integral ? Op::makeInt(static_cast<int64_t>(*D.NumConst))
                        : Op::makeFloat(*D.NumConst);
  // The class now holds an integer-typed witness.
  if (Integral && !Classes[Id]->Data.NumIsInt)
    Classes[Id]->Data.NumIsInt = true;
  ENode Leaf(Literal, {});
  auto It = Memo.find(Leaf);
  if (It != Memo.end()) {
    if (UF.find(It->second) != Id)
      merge(Id, It->second);
    return;
  }
  // Insert the leaf directly into this class (bypassing add(), which would
  // create a fresh class).
  touch(Id);
  EClass &C = *Classes[Id];
  C.Nodes.push_back(Leaf);
  C.NodeGens.push_back(Gen);
  C.Kinds |= opKindBit(Leaf.kind());
  ++LiveNodes;
  OpIndex[Leaf.Operator].push_back(Id);
  Memo.emplace(std::move(Leaf), Id);
}

std::string EGraph::checkInvariants() const {
  if (isDirty())
    return "graph is dirty: call rebuild() before checking invariants";
  std::ostringstream Os;

  // 1. Every canonical node of every class maps to that class in the memo
  //    (hash-consing), and no two classes contain congruent nodes.
  std::unordered_map<ENode, EClassId, ENodeHash> Seen;
  for (EClassId Id : classIds()) {
    for (const ENode &N : eclass(Id).Nodes) {
      ENode Canon = canonicalize(N);
      auto MemoIt = Memo.find(Canon);
      if (MemoIt == Memo.end()) {
        Os << "node " << Canon.Operator.str() << " of class " << Id
           << " missing from memo";
        return Os.str();
      }
      if (UF.find(MemoIt->second) != Id) {
        Os << "memo maps a node of class " << Id << " to class "
           << UF.find(MemoIt->second);
        return Os.str();
      }
      auto [It, Inserted] = Seen.emplace(Canon, Id);
      if (!Inserted && It->second != Id) {
        Os << "congruence violation: identical node in classes "
           << It->second << " and " << Id;
        return Os.str();
      }
    }
  }

  // 2 + 3. Parent links, both directions. One pass over the stored parent
  // entries canonicalizes each entry once, validates its truthfulness
  // (check 3: its canonical form is a live e-node of the recorded parent
  // class that still references the child it is stored under — entries
  // may be stale forms, but canonicalization must repair them; this is
  // what canonicalParents() and the extraction engine's cost propagation
  // rely on), and indexes it per child class. Check 2 — every child of
  // every node has a matching parent entry — is then a hash lookup per
  // edge. (The naive form rescanned the child's whole parent list per
  // edge, which is quadratic on parent-heavy classes: a restored
  // nintendo-slot graph spent ~18 seconds here.)
  struct ParentKey {
    ENode N;
    EClassId C;
    bool operator==(const ParentKey &O) const { return C == O.C && N == O.N; }
  };
  struct ParentKeyHash {
    size_t operator()(const ParentKey &K) const {
      return ENodeHash()(K.N) * size_t(1000003) + K.C;
    }
  };
  std::vector<std::unordered_set<ParentKey, ParentKeyHash>> ParentIndex(
      Classes.size());
  for (EClassId Id : classIds()) {
    ParentIndex[Id].reserve(eclass(Id).Parents.size());
    for (const auto &[PNode, PClass] : eclass(Id).Parents) {
      ENode Canon = canonicalize(PNode);
      auto MemoIt = Memo.find(Canon);
      if (MemoIt == Memo.end() || UF.find(MemoIt->second) != UF.find(PClass)) {
        Os << "class " << Id << " holds a parent entry whose node is not "
           << "hash-consed to class " << UF.find(PClass);
        return Os.str();
      }
      bool RefersBack = false;
      for (EClassId Kid : Canon.Children)
        if (UF.find(Kid) == Id) {
          RefersBack = true;
          break;
        }
      if (!RefersBack) {
        Os << "class " << Id << " holds a parent entry for a node of class "
           << UF.find(PClass) << " that no longer references it";
        return Os.str();
      }
      ParentIndex[Id].insert({std::move(Canon), UF.find(PClass)});
    }
  }
  for (EClassId Id : classIds()) {
    for (const ENode &N : eclass(Id).Nodes) {
      ENode Canon = canonicalize(N);
      for (EClassId Kid : Canon.Children) {
        if (ParentIndex[Kid].find({Canon, Id}) == ParentIndex[Kid].end()) {
          Os << "class " << Kid
             << " missing parent entry for a node of class " << Id;
          return Os.str();
        }
      }
    }
  }

  // 4. Per-node stamps are parallel to the nodes and never from the
  //    future, and the head-kind mask is exactly the kinds present.
  for (EClassId Id : classIds()) {
    const EClass &C = eclass(Id);
    if (C.NodeGens.size() != C.Nodes.size()) {
      Os << "class " << Id << " holds " << C.NodeGens.size()
         << " node stamps for " << C.Nodes.size() << " nodes";
      return Os.str();
    }
    uint64_t Kinds = 0;
    for (size_t I = 0; I < C.Nodes.size(); ++I) {
      if (C.NodeGens[I] > Gen) {
        Os << "class " << Id << " holds a node stamped " << C.NodeGens[I]
           << " past generation " << Gen;
        return Os.str();
      }
      Kinds |= opKindBit(C.Nodes[I].kind());
    }
    if (C.Kinds != Kinds) {
      Os << "class " << Id << " head-kind mask disagrees with its nodes";
      return Os.str();
    }
  }

  // 5. The operator-head index agrees with a full rescan: for every Op,
  //    the canonicalized index bucket is exactly the set of classes
  //    containing a node with that head. (Read-only: buckets are
  //    canonicalized into scratch sets, not compacted in place.)
  std::unordered_map<Op, std::unordered_set<EClassId>> Rescan;
  size_t RescanClasses = 0, RescanNodes = 0;
  for (EClassId Id : classIds()) {
    ++RescanClasses;
    RescanNodes += eclass(Id).Nodes.size();
    for (const ENode &N : eclass(Id).Nodes)
      Rescan[N.Operator].insert(Id);
  }
  for (const auto &[O, Ids] : OpIndex) {
    std::unordered_set<EClassId> Canon;
    for (EClassId Id : Ids)
      Canon.insert(UF.find(Id));
    auto RescanIt = Rescan.find(O);
    const std::unordered_set<EClassId> Want =
        RescanIt == Rescan.end() ? std::unordered_set<EClassId>{}
                                 : RescanIt->second;
    if (Canon != Want) {
      Os << "op-index for " << O.str() << " holds " << Canon.size()
         << " classes but a rescan finds " << Want.size();
      return Os.str();
    }
  }
  for (const auto &[O, Want] : Rescan)
    if (OpIndex.find(O) == OpIndex.end() && !Want.empty()) {
      Os << "op-index missing bucket for " << O.str();
      return Os.str();
    }

  // 6. The O(1) counters agree with a rescan.
  if (LiveClasses != RescanClasses) {
    Os << "class counter " << LiveClasses << " != rescan " << RescanClasses;
    return Os.str();
  }
  if (LiveNodes != RescanNodes) {
    Os << "node counter " << LiveNodes << " != rescan " << RescanNodes;
    return Os.str();
  }
  return "";
}

std::string EGraph::dump() const {
  std::ostringstream Os;
  for (EClassId Id : classIds()) {
    const EClass &C = *Classes[Id];
    Os << "class " << Id;
    if (C.Data.NumConst)
      Os << " [const " << *C.Data.NumConst << (C.Data.NumIsInt ? "i" : "f")
         << "]";
    Os << ":\n";
    for (const ENode &N : C.Nodes) {
      Os << "  " << N.Operator.str() << "(";
      for (size_t I = 0; I < N.Children.size(); ++I) {
        if (I)
          Os << ", ";
        Os << UF.find(N.Children[I]);
      }
      Os << ")\n";
    }
  }
  return Os.str();
}
