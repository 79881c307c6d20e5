//===-- egraph/EGraph.cpp - E-graph with congruence closure ---------------===//

#include "egraph/EGraph.h"

#include "linalg/Vec3.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

using namespace shrinkray;

void EGraph::canonicalizeChildren(ENode &Node) const {
  for (size_t I = 0; I < Node.arity(); ++I)
    Node.setChild(I, UF.find(Node.child(I)));
}

ENode EGraph::canonicalize(const ENode &Node) const {
  ENode Out = Node;
  canonicalizeChildren(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Hash-consing memo
//===----------------------------------------------------------------------===//

size_t EGraph::memoFind(const ENode &Form, uint32_t Hash) const {
  if (Memo.empty())
    return SIZE_MAX;
  const size_t Mask = Memo.size() - 1;
  for (size_t I = Hash & Mask; Memo[I].NodePlus1; I = (I + 1) & Mask)
    if (Memo[I].Hash == Hash && Nodes[Memo[I].NodePlus1 - 1] == Form)
      return I;
  return SIZE_MAX;
}

void EGraph::memoInsert(ENodeId N, uint32_t Hash) {
  // Grow at 3/4 load, before probing, so the slot found below stays valid.
  if ((MemoCount + 1) * 4 > Memo.size() * 3) {
    std::vector<MemoSlot> Old(Memo.empty() ? 1024 : Memo.size() * 2);
    Old.swap(Memo);
    const size_t Mask = Memo.size() - 1;
    for (const MemoSlot &Sl : Old) {
      if (!Sl.NodePlus1)
        continue;
      size_t I = Sl.Hash & Mask;
      while (Memo[I].NodePlus1)
        I = (I + 1) & Mask;
      Memo[I] = Sl;
    }
  }
  const size_t Mask = Memo.size() - 1;
  size_t I = Hash & Mask;
  while (Memo[I].NodePlus1)
    I = (I + 1) & Mask;
  Memo[I] = MemoSlot{N + 1, Hash};
  ++MemoCount;
}

void EGraph::memoErase(const ENode &Form) {
  size_t I = memoFind(Form, memoHash(Form));
  if (I == SIZE_MAX)
    return;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home bucket lies cyclically in (hole, entry].
  const size_t Mask = Memo.size() - 1;
  for (size_t J = (I + 1) & Mask; Memo[J].NodePlus1; J = (J + 1) & Mask) {
    const size_t Home = Memo[J].Hash & Mask;
    const bool Stays =
        I <= J ? (I < Home && Home <= J) : (I < Home || Home <= J);
    if (!Stays) {
      Memo[I] = Memo[J];
      I = J;
    }
  }
  Memo[I] = MemoSlot{};
  --MemoCount;
}

//===----------------------------------------------------------------------===//
// Insertion, merge and rebuild
//===----------------------------------------------------------------------===//

ENodeId EGraph::newNode(ENode Node, EClassId Home) {
  const ENodeId N = static_cast<ENodeId>(Nodes.size());
  Nodes.push_back(std::move(Node));
  NodeHome.push_back(Home);
  NodeGens.push_back(Gen);
  ++LiveNodes;
  return N;
}

EClassId EGraph::add(ENode Node) {
  canonicalizeChildren(Node);
  const uint32_t H = memoHash(Node);
  if (size_t Slot = memoFind(Node, H); Slot != SIZE_MAX)
    return nodeClass(Memo[Slot].NodePlus1 - 1);

  EClassId Id = UF.makeSet();
  touch(Id);
  const ENodeId N = newNode(std::move(Node), Id);
  const ENode &Form = Nodes[N];
  EClass C;
  C.Id = Id;
  C.Nodes.push_back(N);
  C.Kinds = opKindBit(Form.kind());
  C.Data = makeData(Form);
  for (EClassId Kid : Form.children())
    eclassMut(Kid).Parents.push_back(N);
  Classes.push_back(std::move(C));
  assert(Classes.size() == UF.size() && "class table out of sync");
  ++LiveClasses;
  OpIndex[Form.Operator].push_back(Id);
  memoInsert(N, H);
  modify(Id);
  return UF.find(Id);
}

EClassId EGraph::addTerm(const TermPtr &T) {
  // Children first, on an explicit stack: a frame is revisited once all
  // its children have ids. Shared subterms are added once (the e-graph
  // would hash-cons them anyway; the memo skips the redundant probes).
  // Constant folding in add()/modify() may merge classes mid-walk, leaving
  // memoized ids stale. That is safe: a memoized id is only ever reused as
  // a child of a later ENode, and add() canonicalizes child ids.
  std::unordered_map<const Term *, EClassId> Done;
  std::vector<std::pair<const Term *, size_t>> Stack{{T.get(), 0}};
  std::vector<EClassId> Kids;
  while (!Stack.empty()) {
    auto &[Cur, NextKid] = Stack.back();
    if (NextKid < Cur->numChildren()) {
      const Term *Kid = Cur->child(NextKid++).get();
      if (!Done.count(Kid))
        Stack.emplace_back(Kid, 0);
      continue;
    }
    Kids.clear();
    for (const TermPtr &Kid : Cur->children())
      Kids.push_back(Done.at(Kid.get()));
    Done.emplace(Cur, add(ENode(Cur->op(), Kids)));
    Stack.pop_back();
  }
  return Done.at(T.get());
}

std::pair<EClassId, bool> EGraph::merge(EClassId A, EClassId B) {
  A = UF.find(A);
  B = UF.find(B);
  if (A == B)
    return {A, false};

  // Keep the class with more parents as the root: repair() revisits the
  // loser's parents, so this minimizes work.
  if (Classes[A].Parents.size() < Classes[B].Parents.size())
    std::swap(A, B);

  UF.unite(A, B);
  EClass &Root = Classes[A];
  EClass Loser = std::move(Classes[B]);
  Classes[B] = EClass();

  Root.Nodes.insert(Root.Nodes.end(), Loser.Nodes.begin(), Loser.Nodes.end());
  Root.Kinds |= Loser.Kinds;
  Root.Parents.insert(Root.Parents.end(), Loser.Parents.begin(),
                      Loser.Parents.end());
  bool DataChanged = joinData(Root.Data, Loser.Data);

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
  // Re-canonicalize parent e-nodes, restoring the hash-consing invariant and
  // discovering congruent parents to merge. A parent's stored form is
  // rewritten in place, so it leaves the memo first (the memo is keyed by
  // stored forms) and re-enters under its canonical form unless a
  // congruent node already holds that form.
  std::vector<ENodeId> OldParents;
  OldParents.swap(Classes[UF.find(Id)].Parents);
  for (ENodeId P : OldParents) {
    memoErase(Nodes[P]);
    canonicalizeChildren(Nodes[P]);
    const uint32_t H = memoHash(Nodes[P]);
    size_t Slot = memoFind(Nodes[P], H);
    if (Slot != SIZE_MAX)
      merge(NodeHome[P], NodeHome[Memo[Slot].NodePlus1 - 1]); // congruence
    else
      memoInsert(P, H);
  }

  // Dedupe parents by canonical form, in first-occurrence order; a
  // duplicate that became congruent is merged into its group's class.
  // Group G's first entry and class are First[G] and GroupClass[G].
  Groups.reset(OldParents.size());
  std::vector<ENodeId> First;
  std::vector<EClassId> GroupClass;
  for (ENodeId P : OldParents) {
    EClassId PCanon = nodeClass(P);
    auto [G, New] = Groups.insert(canonicalForm(P));
    if (New) {
      First.push_back(P);
      GroupClass.push_back(PCanon);
    } else {
      merge(GroupClass[G], PCanon);
      GroupClass[G] = UF.find(GroupClass[G]);
    }
  }

  // Push analysis data upward: a parent may now fold to a constant.
  // makeData() reads children through find(), so the stored form serves.
  for (size_t G = 0; G < First.size(); ++G) {
    EClassId PCanon = UF.find(GroupClass[G]);
    AnalysisData New = makeData(Nodes[First[G]]);
    if (joinData(Classes[PCanon].Data, New)) {
      // Data changes can flip rule guards (isConst etc.), so they must
      // make the class visible to incremental searches.
      touch(PCanon);
      modify(PCanon);
      Worklist.push_back(PCanon);
    }
  }

  // Re-fetch: the merges above may have merged this class with another
  // (self-referential nodes make that possible), possibly appending new
  // parent entries that must be kept. Those appended entries are deduped
  // by a later repair (the merge queued one).
  EClass &C2 = Classes[UF.find(Id)];
  C2.Parents.insert(C2.Parents.end(), First.begin(), First.end());

  // Dedupe this class's own nodes by canonical form. A surviving node keeps
  // its own stamp, the first occurrence's: two nodes only collapse after a
  // child merge, which touched that child after every live search cursor,
  // so the root filter rescans the survivor whichever stamp it carries.
  // Stored forms are left alone (the memo is keyed by them).
  const size_t Before = C2.Nodes.size();
  dedupeByForm(C2.Nodes);
  assert(LiveNodes >= Before - C2.Nodes.size());
  LiveNodes -= Before - C2.Nodes.size();
}

void EGraph::FormGroups::reset(size_t MaxForms) {
  Forms.clear();
  size_t Size = 4; // a power of two, at most half full
  while (Size < 2 * MaxForms)
    Size *= 2;
  Slots.assign(Size, 0);
}

std::pair<size_t, bool> EGraph::FormGroups::insert(ENode Form) {
  assert(2 * Forms.size() < Slots.size() && "FormGroups over capacity");
  const size_t Mask = Slots.size() - 1;
  for (size_t I = mix64(Form.hash()) & Mask;; I = (I + 1) & Mask) {
    if (!Slots[I]) {
      Forms.push_back(std::move(Form));
      Slots[I] = static_cast<uint32_t>(Forms.size());
      return {Forms.size() - 1, true};
    }
    if (Forms[Slots[I] - 1] == Form)
      return {Slots[I] - 1, false};
  }
}

void EGraph::dedupeByForm(std::vector<ENodeId> &Ids) const {
  Groups.reset(Ids.size());
  size_t Keep = 0;
  for (ENodeId N : Ids)
    if (Groups.insert(canonicalForm(N)).second)
      Ids[Keep++] = N;
  Ids.resize(Keep);
}

std::vector<EClassId> EGraph::classIds() const {
  std::vector<EClassId> Ids;
  for (EClassId I = 0; I < Classes.size(); ++I)
    if (UF.rawParent(I) == I) // a root: its class is live
      Ids.push_back(I);
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

const std::vector<ENodeId> &EGraph::canonicalParents(EClassId Id) const {
  assert(!isDirty() && "parent query on an unrebuilt graph");
  // Compact in place: drop entries whose canonical form repeats an earlier
  // one, keeping first-occurrence order (deterministic given the append
  // order). On a clean graph congruent parents share a class, so the kept
  // entry names the right class for every dropped one. A generation stamp
  // skips recompaction while the graph is unchanged (extraction queries
  // each class's parents once per cost improvement).
  const EClass &C = Classes[UF.find(Id)];
  std::vector<ENodeId> &Ps = C.Parents;
  if (C.ParentsCompactedGen == Gen)
    return Ps;
  C.ParentsCompactedGen = Gen;
  dedupeByForm(Ps);
  return Ps;
}

std::vector<EClassId> EGraph::takeDirtySince(uint64_t Since) const {
  assert(!isDirty() && "dirty query on an unrebuilt graph");
  // A cursor behind the compaction floor can no longer be answered from
  // the log; every class is a sound (if maximal) answer.
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
    for (ENodeId P : eclass(Id).Parents) {
      EClassId PCanon = nodeClass(P);
      if (InSet.insert(PCanon).second)
        Stack.push_back(PCanon);
    }
  }
  std::vector<EClassId> Out(InSet.begin(), InSet.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

void EGraph::compactDirtyLog(uint64_t MinLiveGen) {
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
  ENode Form = canonicalize(Node);
  size_t Slot = memoFind(Form, memoHash(Form));
  if (Slot == SIZE_MAX)
    return std::nullopt;
  return nodeClass(Memo[Slot].NodePlus1 - 1);
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
  for (ENodeId NId : eclass(Id).Nodes) {
    const ENode &N = Nodes[NId];
    if (N.Operator != T->op() || N.arity() != T->numChildren())
      continue;
    bool AllMatch = true;
    for (size_t I = 0; I < N.arity(); ++I) {
      if (!representsTermRec(N.child(I), T->child(I), Cache)) {
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
  for (ENodeId NId : eclass(Id).Nodes) {
    const ENode &N = Nodes[NId];
    if (N.Operator != T->op() || N.arity() != T->numChildren())
      continue;
    bool AllMatch = true;
    for (size_t I = 0; I < N.arity(); ++I) {
      if (!representsTermApproxRec(N.child(I), T->child(I), Eps, Cache)) {
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
    const AnalysisData &A = data(Node.child(0));
    const AnalysisData &B = data(Node.child(1));
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
    const AnalysisData &A = data(Node.child(0));
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
  const AnalysisData D = Classes[Id].Data;
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
  if (Integral && !Classes[Id].Data.NumIsInt)
    Classes[Id].Data.NumIsInt = true;
  ENode Leaf(Literal, {});
  const uint32_t H = memoHash(Leaf);
  if (size_t Slot = memoFind(Leaf, H); Slot != SIZE_MAX) {
    EClassId Other = nodeClass(Memo[Slot].NodePlus1 - 1);
    if (Other != Id)
      merge(Id, Other);
    return;
  }
  // Insert the leaf directly into this class (bypassing add(), which would
  // create a fresh class).
  touch(Id);
  const ENodeId N = newNode(std::move(Leaf), Id);
  EClass &C = Classes[Id];
  C.Nodes.push_back(N);
  C.Kinds |= opKindBit(Literal.kind());
  OpIndex[Literal].push_back(Id);
  memoInsert(N, H);
}

std::string EGraph::checkInvariants() const {
  if (isDirty())
    return "graph is dirty: call rebuild() before checking invariants";
  std::ostringstream Os;

  // 0. The memo is a consistent index: every entry names a node, is keyed
  //    by that node's stored form, and is reachable by probing for it.
  size_t Occupied = 0;
  for (size_t I = 0; I < Memo.size(); ++I) {
    if (!Memo[I].NodePlus1)
      continue;
    ++Occupied;
    const ENodeId N = Memo[I].NodePlus1 - 1;
    if (N >= Nodes.size() || Memo[I].Hash != memoHash(Nodes[N]) ||
        memoFind(Nodes[N], Memo[I].Hash) != I) {
      Os << "memo slot " << I << " is not keyed by its node's stored form";
      return Os.str();
    }
  }
  if (Occupied != MemoCount) {
    Os << "memo count " << MemoCount << " != occupied slots " << Occupied;
    return Os.str();
  }

  // Canonical forms are identified by the memo node holding them (the
  // memo holds at most one node per form), so the checks below compare
  // forms as node ids instead of hashing e-nodes into scratch sets.
  auto formId = [&](const ENode &Canon) -> std::optional<ENodeId> {
    size_t Slot = memoFind(Canon, memoHash(Canon));
    if (Slot == SIZE_MAX)
      return std::nullopt;
    return Memo[Slot].NodePlus1 - 1;
  };

  // 1. Every node of every class belongs to it by its home class, and its
  //    canonical form maps to that class in the memo (hash-consing). This
  //    implies congruence closure: two live nodes with one canonical form
  //    in distinct classes cannot both map to their own class.
  constexpr ENodeId NoForm = ~ENodeId(0);
  std::vector<ENodeId> FormOf(Nodes.size(), NoForm); // live nodes only
  for (EClassId Id : classIds()) {
    for (ENodeId N : Classes[Id].Nodes) {
      if (N >= Nodes.size() || nodeClass(N) != Id) {
        Os << "class " << Id << " lists a node whose home class is not it";
        return Os.str();
      }
      std::optional<ENodeId> Form = formId(canonicalForm(N));
      if (!Form) {
        Os << "node " << Nodes[N].Operator.str() << " of class " << Id
           << " missing from memo";
        return Os.str();
      }
      if (nodeClass(*Form) != Id) {
        Os << "memo maps a node of class " << Id << " to class "
           << nodeClass(*Form);
        return Os.str();
      }
      FormOf[N] = *Form;
    }
  }

  // 1b. Nodes no class lists (repair's dedupe dropped them; parent entries
  //     may still name them) stand for a live twin: each one's canonical
  //     form maps to its own class. And every memo entry keyed by a
  //     canonical form is the form of a live node, so a node table entry
  //     that no class backs cannot hash-cons a form into a class without
  //     such a node.
  std::vector<uint8_t> Backed(Nodes.size(), 0);
  for (ENodeId N = 0; N < Nodes.size(); ++N)
    if (FormOf[N] != NoForm)
      Backed[FormOf[N]] = 1;
  for (ENodeId N = 0; N < Nodes.size(); ++N) {
    if (FormOf[N] != NoForm)
      continue;
    std::optional<ENodeId> Form = formId(canonicalForm(N));
    if (!Form || nodeClass(*Form) != nodeClass(N)) {
      Os << "unlisted node " << Nodes[N].Operator.str()
         << " is not hash-consed to its class " << nodeClass(N);
      return Os.str();
    }
  }
  for (const MemoSlot &Sl : Memo) {
    if (!Sl.NodePlus1 || Backed[Sl.NodePlus1 - 1])
      continue;
    const ENode &Stored = Nodes[Sl.NodePlus1 - 1];
    if (canonicalize(Stored) == Stored) {
      Os << "memo holds " << Stored.Operator.str() << " for class "
         << nodeClass(Sl.NodePlus1 - 1) << ", where no node has that form";
      return Os.str();
    }
  }

  // 2 + 3. Parent links, both directions, per child class. Check 2: every
  // child of every live node has a parent entry of the node's canonical
  // form (whose class is then the node's, by checks 1 and 3). Check 3:
  // every parent entry is truthful — its canonical form is hash-consed to
  // the class holding it and still references the child it is stored
  // under. Entries may be stale forms, but canonicalization must repair
  // them; canonicalParents() and the extraction engine's cost propagation
  // rely on this. Nearly every entry is the referencing node itself, so
  // the pass matches by node id first (stamp arrays, no hashing) and
  // compares canonical forms only for what is left: twins repair's dedupe
  // dropped and forged entries.
  std::vector<uint32_t> Start(Classes.size() + 1, 0); // edges by child
  for (EClassId Id : classIds())
    for (ENodeId N : Classes[Id].Nodes)
      for (EClassId Kid : Nodes[N].children())
        ++Start[UF.find(Kid) + 1];
  for (size_t I = 1; I < Start.size(); ++I)
    Start[I] += Start[I - 1];
  std::vector<ENodeId> EdgeNodes(Start.back());
  {
    std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
    for (EClassId Id : classIds())
      for (ENodeId N : Classes[Id].Nodes)
        for (EClassId Kid : Nodes[N].children())
          EdgeNodes[Fill[UF.find(Kid)]++] = N;
  }
  std::vector<uint32_t> Listed(Nodes.size(), 0), Matched(Nodes.size(), 0);
  std::vector<ENodeId> EntryForms;
  for (EClassId Kid : classIds()) {
    const uint32_t Stamp = Kid + 1;
    const std::vector<ENodeId> &Entries = Classes[Kid].Parents;
    for (ENodeId P : Entries) {
      if (P >= Nodes.size()) {
        Os << "class " << Kid << " holds a parent entry past the node table";
        return Os.str();
      }
      Listed[P] = Stamp;
    }
    bool FormsBuilt = false;
    for (uint32_t E = Start[Kid]; E < Start[Kid + 1]; ++E) {
      const ENodeId N = EdgeNodes[E];
      if (Listed[N] == Stamp) {
        Matched[N] = Stamp;
        continue;
      }
      if (!FormsBuilt) {
        EntryForms.clear();
        for (ENodeId P : Entries)
          if (std::optional<ENodeId> Form = formId(canonicalForm(P)))
            EntryForms.push_back(*Form);
        std::sort(EntryForms.begin(), EntryForms.end());
        FormsBuilt = true;
      }
      if (!std::binary_search(EntryForms.begin(), EntryForms.end(),
                              FormOf[N])) {
        Os << "class " << Kid << " missing parent entry for a node of class "
           << nodeClass(N);
        return Os.str();
      }
    }
    for (ENodeId P : Entries) {
      if (Matched[P] == Stamp)
        continue; // a live node with child Kid, hash-consed by check 1
      ENode Canon = canonicalForm(P);
      std::optional<ENodeId> Form = formId(Canon);
      if (!Form || nodeClass(*Form) != nodeClass(P)) {
        Os << "class " << Kid << " holds a parent entry whose node is not "
           << "hash-consed to class " << nodeClass(P);
        return Os.str();
      }
      const ChildSpan Kids = Canon.children();
      if (std::find(Kids.begin(), Kids.end(), Kid) == Kids.end()) {
        Os << "class " << Kid << " holds a parent entry for a node of class "
           << nodeClass(P) << " that no longer references it";
        return Os.str();
      }
    }
  }

  // 4. No node stamp is from the future, and the head-kind mask is
  //    exactly the kinds present.
  if (NodeHome.size() != Nodes.size() || NodeGens.size() != Nodes.size()) {
    Os << "node table columns differ in length";
    return Os.str();
  }
  for (EClassId Id : classIds()) {
    const EClass &C = Classes[Id];
    uint64_t Kinds = 0;
    for (ENodeId N : C.Nodes) {
      if (NodeGens[N] > Gen) {
        Os << "class " << Id << " holds a node stamped " << NodeGens[N]
           << " past generation " << Gen;
        return Os.str();
      }
      Kinds |= opKindBit(Nodes[N].kind());
    }
    if (C.Kinds != Kinds) {
      Os << "class " << Id << " head-kind mask disagrees with its nodes";
      return Os.str();
    }
  }

  // 5. The operator-head index agrees with a full rescan: for every Op,
  //    the canonicalized index bucket is exactly the set of classes
  //    containing a node with that head. (Read-only: buckets are
  //    canonicalized into sorted copies, not compacted in place.)
  //    Every listed class holds the head, and every node's class is
  //    listed under its head.
  std::unordered_map<Op, std::vector<EClassId>> Canon;
  for (const auto &[O, Ids] : OpIndex) {
    std::vector<EClassId> &Sorted = Canon[O];
    for (EClassId Id : Ids)
      Sorted.push_back(UF.find(Id));
    std::sort(Sorted.begin(), Sorted.end());
    Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
    for (EClassId Id : Sorted) {
      const std::vector<ENodeId> &Members = Classes[Id].Nodes;
      if (std::none_of(Members.begin(), Members.end(),
                       [&](ENodeId N) { return Nodes[N].Operator == O; })) {
        Os << "op-index for " << O.str() << " lists class " << Id
           << " without that head";
        return Os.str();
      }
    }
  }
  size_t RescanClasses = 0, RescanNodes = 0;
  for (EClassId Id : classIds()) {
    ++RescanClasses;
    RescanNodes += Classes[Id].Nodes.size();
    for (ENodeId N : Classes[Id].Nodes) {
      auto It = Canon.find(Nodes[N].Operator);
      if (It == Canon.end() ||
          !std::binary_search(It->second.begin(), It->second.end(), Id)) {
        Os << "op-index for " << Nodes[N].Operator.str() << " misses class "
           << Id;
        return Os.str();
      }
    }
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
    const EClass &C = Classes[Id];
    Os << "class " << Id;
    if (C.Data.NumConst)
      Os << " [const " << *C.Data.NumConst << (C.Data.NumIsInt ? "i" : "f")
         << "]";
    Os << ":\n";
    for (ENodeId NId : C.Nodes) {
      const ENode &N = Nodes[NId];
      Os << "  " << N.Operator.str() << "(";
      for (size_t I = 0; I < N.arity(); ++I) {
        if (I)
          Os << ", ";
        Os << UF.find(N.child(I));
      }
      Os << ")\n";
    }
  }
  return Os.str();
}
