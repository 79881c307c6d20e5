//===-- cad/Term.cpp - Immutable, hashconsed CAD term trees ---------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term interner. makeTerm keys a sharded, mutex-guarded table by the
/// structural hash and resolves collisions with an exact (operator,
/// child-pointer) comparison — children are already interned, so pointer
/// equality of children *is* structural equality of subtrees. Entries hold
/// weak references; ~Term removes its own slot when the last strong
/// reference drops, so the table never pins dead terms and never grows
/// beyond the live working set.
///
/// Lifetime details that keep this correct under concurrency:
///  - A slot whose weak_ptr no longer locks belongs to a term whose
///    destructor is mid-flight on another thread; lookups skip it and a
///    fresh node with the same shape may be inserted alongside. ~Term
///    erases only the slot whose raw pointer is its own, so it can never
///    remove the replacement.
///  - The table itself is leaked on purpose: terms held by static-
///    duration objects run their destructors during static destruction,
///    after a function-local static table would already be gone.
///  - No shard mutex is ever held while a TermPtr is released (releasing
///    the last reference to a child would re-enter the same shard).
///
//===----------------------------------------------------------------------===//

#include "cad/Term.h"

#include "support/Hashing.h"

#include <atomic>
#include <cmath>
#include <mutex>

using namespace shrinkray;

namespace {

/// The operator's contribution to the value-level hash: numeric literals
/// seed from their value alone under a shared kind-agnostic tag (so Int 5
/// and Float 5.0 hash identically, mirroring termApproxEquals at Eps 0),
/// symbol-carrying ops from their *spelling* (stable across processes
/// sharing a disk cache, unlike interning ids), and everything else from
/// its kind. Matches the equivalence the result cache's fingerprints
/// need: value-equal operators always seed equal. Word-wise arithmetic
/// throughout — this runs once per interned node, and the byte-wise
/// Fnv1a was a measurable fraction of makeTerm on term-churn paths
/// (symbols still pay Fnv1a over the spelling; they are rare).
uint64_t valueHashOpSeed(const Op &O) {
  switch (O.kind()) {
  case OpKind::Int:
  case OpKind::Float: {
    double V = O.numericValue();
    uint64_t Bits;
    V = V == 0.0 ? 0.0 : V; // canonicalize -0.0
    std::memcpy(&Bits, &V, sizeof Bits);
    return mix64(Bits + (uint64_t(1) << 32)); // shared numeric tag
  }
  case OpKind::Var:
  case OpKind::External:
  case OpKind::PatVar:
    return mix64(static_cast<uint64_t>(O.kind()) +
                 Fnv1a().str(O.symbol().str()).hash());
  case OpKind::OpRef:
    return mix64(static_cast<uint64_t>(O.kind()) +
                 (static_cast<uint64_t>(O.referencedOp()) << 8));
  default:
    return mix64(static_cast<uint64_t>(O.kind()));
  }
}

/// Order-sensitive polynomial accumulation of one already-mixed word
/// (child hashes and the seed are mix64 outputs, so a cheap combine per
/// step suffices); termValueHashNode applies a final mix64 avalanche.
constexpr uint64_t ValueHashMul = 6364136223846793005ull;
inline uint64_t valueHashFold(uint64_t H, uint64_t V) {
  return H * ValueHashMul + V;
}

/// One interner slot: the stored structural hash (probe prefilter), the
/// raw node (for exact comparison and destructor self-identification),
/// and a weak reference to hand out on hits. Raw doubles as the slot
/// state: null = never used, tombstone() = erased.
struct InternSlot {
  size_t Hash = 0;
  const Term *Raw = nullptr;
  std::weak_ptr<const Term> Weak;
};

/// Open-addressing slot table: linear probing over a contiguous
/// power-of-two array, erase via tombstones, growth at 3/4 occupancy
/// (live + tombstones), so a probe always terminates at an empty slot.
/// The node-based unordered_multimap this replaces made equal_range the
/// single hottest symbol in the extraction-oracle profile — every probe
/// chased list nodes allocated one malloc at a time; here a probe walks
/// adjacent memory and inserts allocate nothing (amortized).
struct InternShard {
  std::mutex M;
  std::vector<InternSlot> Slots; // size always zero or a power of two
  size_t Live = 0;               // occupied, excluding tombstones
  size_t Used = 0;               // occupied, including tombstones

  static const Term *tombstone() {
    static const char Sentinel = 0;
    return reinterpret_cast<const Term *>(&Sentinel);
  }

  /// First live slot matching \p H whose weak reference still locks;
  /// expired matches (destructor mid-flight elsewhere) are skipped.
  /// \p SameShape is called on candidate raw nodes only. Caller holds M.
  template <typename SameShapeFn>
  TermPtr findLive(size_t H, SameShapeFn &&SameShape) {
    if (Slots.empty())
      return nullptr;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      InternSlot &Sl = Slots[I];
      if (!Sl.Raw)
        return nullptr;
      if (Sl.Raw == tombstone() || Sl.Hash != H || !SameShape(Sl.Raw))
        continue;
      if (TermPtr P = Sl.Weak.lock())
        return P;
    }
  }

  /// Inserts without an existence check (makeTerm probes first, under
  /// the same lock). Caller holds M.
  void insert(size_t H, const Term *Raw, std::weak_ptr<const Term> Weak) {
    if (Slots.empty())
      rehash(256);
    else if ((Used + 1) * 4 > Slots.size() * 3)
      // Doubling also flushes tombstones; keep the size when live
      // entries alone would leave the doubled table mostly empty.
      rehash(Live * 4 > Slots.size() ? Slots.size() * 2 : Slots.size());
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      InternSlot &Sl = Slots[I];
      if (Sl.Raw && Sl.Raw != tombstone())
        continue;
      if (!Sl.Raw)
        ++Used;
      Sl = {H, Raw, std::move(Weak)};
      ++Live;
      return;
    }
  }

  /// Tombstones the slot owned by \p Raw, if present. Caller holds M.
  void erase(size_t H, const Term *Raw) {
    if (Slots.empty())
      return;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      InternSlot &Sl = Slots[I];
      if (!Sl.Raw)
        return;
      if (Sl.Raw == Raw) {
        Sl.Raw = tombstone();
        Sl.Weak.reset();
        --Live;
        return;
      }
    }
  }

  void rehash(size_t NewCap) {
    std::vector<InternSlot> Old(NewCap);
    Old.swap(Slots);
    Used = Live = 0;
    const size_t Mask = Slots.size() - 1;
    for (InternSlot &Sl : Old) {
      if (!Sl.Raw || Sl.Raw == tombstone())
        continue;
      for (size_t I = Sl.Hash & Mask;; I = (I + 1) & Mask) {
        if (Slots[I].Raw)
          continue;
        Slots[I] = std::move(Sl);
        ++Used;
        ++Live;
        break;
      }
    }
  }
};

constexpr size_t NumInternShards = 16;

struct InternTable {
  InternShard Shards[NumInternShards];
  std::atomic<uint64_t> Unique{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Live{0};
};

InternTable &internTable() {
  static InternTable *T = new InternTable; // leaked, see file comment
  return *T;
}

InternShard &shardFor(size_t H) {
  // The low bits feed the bucket index inside the shard; mix higher bits
  // into the shard choice so the two partitions are independent.
  return internTable().Shards[(H >> 48) % NumInternShards];
}

} // namespace

Term::Term(InternKey, Op O, std::vector<TermPtr> Children,
           size_t StructuralHash)
    : Operator(std::move(O)), Kids(std::move(Children)),
      HashV(StructuralHash) {
  assert((opArity(Operator.kind()) < 0 ||
          static_cast<size_t>(opArity(Operator.kind())) == Kids.size()) &&
         "child count does not match operator arity");
  OpKind K = Operator.kind();
  uint64_t VH = valueHashFold(valueHashOpSeed(Operator), Kids.size());
  SizeV = 1;
  PrimsV = ((isPrimitiveOp(K) && K != OpKind::Empty) || K == OpKind::External)
               ? 1
               : 0;
  LoopV = K == OpKind::Fold || K == OpKind::Map || K == OpKind::Mapi ||
          K == OpKind::Repeat || K == OpKind::Fun;
  uint64_t MaxKidDepth = 0;
  for (const TermPtr &Kid : Kids) {
    assert(Kid && "null child term");
    SizeV += Kid->SizeV;
    PrimsV += Kid->PrimsV;
    MaxKidDepth = std::max(MaxKidDepth, Kid->DepthV);
    LoopV = LoopV || Kid->LoopV;
    VH = valueHashFold(VH, Kid->ValueHashV);
  }
  DepthV = MaxKidDepth + 1;
  ValueHashV = mix64(VH);
}

namespace {

/// The release worklist of the outermost ~Term running on this thread,
/// or null when none is.
thread_local std::vector<TermPtr> *PendingRelease = nullptr;

} // namespace

/// Runs when the last strong reference drops: unlinks this node's own
/// slot, then releases the children — *after* the shard lock is dropped,
/// so nested destructors never see a held mutex. (The node and its control
/// block are one make_shared allocation; the slot's weak_ptr — destroyed
/// here — was the last weak reference, so the allocation is freed as soon
/// as this destructor returns.)
///
/// Children are released iteratively: dropping a child this node solely
/// owns runs that child's ~Term, and recursing once per level overflows
/// the stack on a long chain (a 300000-iteration unrolled loop is a
/// 300000-deep Union spine). The outermost ~Term on the thread drains a
/// worklist; a ~Term it triggers hands its children to that worklist.
Term::~Term() {
  InternShard &S = shardFor(HashV);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.erase(HashV, this);
  }
  internTable().Live.fetch_sub(1, std::memory_order_relaxed);

  if (PendingRelease) {
    for (TermPtr &Kid : Kids)
      PendingRelease->push_back(std::move(Kid));
    return;
  }
  std::vector<TermPtr> Work = std::move(Kids);
  PendingRelease = &Work;
  while (!Work.empty()) {
    TermPtr Kid = std::move(Work.back());
    Work.pop_back();
    Kid.reset(); // a nested ~Term appends its children to Work
  }
  PendingRelease = nullptr;
}

TermPtr shrinkray::makeTerm(Op O, std::vector<TermPtr> Children) {
  size_t H = O.hash();
  for (const TermPtr &Kid : Children) {
    assert(Kid && "null child term");
    hashCombine(H, Kid->hash());
  }
  // Avalanche: leaf operators hash to near-sequential small values
  // (Int payloads hash by identity), which would cluster the shards'
  // linear-probe tables and starve all but shard 0 (the shard index is
  // the hash's top bits).
  H = static_cast<size_t>(mix64(H));
  InternTable &Tab = internTable();
  InternShard &S = shardFor(H);
  TermPtr Result;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    Result = S.findLive(H, [&](const Term *C) {
      if (C->op() != O || C->numChildren() != Children.size())
        return false;
      for (size_t I = 0; I < Children.size(); ++I)
        if (C->child(I).get() != Children[I].get())
          return false;
      return true;
    });
    if (Result) {
      Tab.Hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      // One allocation: make_shared co-locates the node and its control
      // block. ~Term unlinks the slot, so no custom deleter is needed.
      std::shared_ptr<Term> T = std::make_shared<Term>(
          Term::InternKey{}, std::move(O), std::move(Children), H);
      S.insert(H, T.get(), T);
      Result = std::move(T);
      Tab.Unique.fetch_add(1, std::memory_order_relaxed);
      Tab.Live.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The shard lock is released before `Children` goes out of scope (hit
  // path): dropping the last reference to a child runs ~Term, which
  // locks — possibly — this same shard.
  return Result;
}

TermPtr shrinkray::lookupTerm(const Op &O, const Term *const *Children,
                              size_t N) {
  size_t H = O.hash();
  for (size_t I = 0; I < N; ++I)
    hashCombine(H, Children[I]->hash());
  H = static_cast<size_t>(mix64(H)); // must mirror makeTerm exactly
  InternShard &S = shardFor(H);
  std::lock_guard<std::mutex> Lock(S.M);
  TermPtr P = S.findLive(H, [&](const Term *C) {
    if (C->op() != O || C->numChildren() != N)
      return false;
    for (size_t I = 0; I < N; ++I)
      if (C->child(I).get() != Children[I])
        return false;
    return true;
  });
  if (P)
    internTable().Hits.fetch_add(1, std::memory_order_relaxed);
  return P; // only TermPtr acquisitions here — nothing released while
            // the shard lock is held
}

TermInternStats shrinkray::termInternStats() {
  InternTable &Tab = internTable();
  TermInternStats S;
  S.Unique = Tab.Unique.load(std::memory_order_relaxed);
  S.Hits = Tab.Hits.load(std::memory_order_relaxed);
  S.Live = Tab.Live.load(std::memory_order_relaxed);
  return S;
}

bool shrinkray::termApproxEquals(const TermPtr &A, const TermPtr &B,
                                 double Eps) {
  if (A.get() == B.get())
    return true; // reflexive: |x - x| = 0 <= Eps for any Eps >= 0
  // At Eps 0, value-equal terms have equal value hashes (the hash respects
  // the Int/Float aliasing below), so differing hashes decide negatively
  // without a walk. Equal hashes still walk: collisions are possible.
  if (Eps == 0.0 && A->valueHash() != B->valueHash())
    return false;
  // Numeric literals compare by value, across the Int/Float divide.
  bool ANum = A->kind() == OpKind::Float || A->kind() == OpKind::Int;
  bool BNum = B->kind() == OpKind::Float || B->kind() == OpKind::Int;
  if (ANum || BNum) {
    if (!ANum || !BNum)
      return false;
    return std::fabs(A->op().numericValue() - B->op().numericValue()) <= Eps;
  }
  if (A->kind() != B->kind() || A->numChildren() != B->numChildren())
    return false;
  if (A->op() != B->op())
    return false;
  for (size_t I = 0; I < A->numChildren(); ++I)
    if (!termApproxEquals(A->child(I), B->child(I), Eps))
      return false;
  return true;
}

size_t shrinkray::termValueHashNode(const Op &O,
                                    const std::vector<size_t> &ChildHashes) {
  uint64_t H = valueHashFold(valueHashOpSeed(O), ChildHashes.size());
  for (size_t KidHash : ChildHashes)
    H = valueHashFold(H, KidHash);
  return mix64(H);
}

bool shrinkray::isFlatCsg(const TermPtr &T) {
  OpKind K = T->kind();
  if (isPrimitiveOp(K) || K == OpKind::External)
    return true;
  if (isAffineOp(K)) {
    // The vector argument must be all-literal.
    const TermPtr &Vec = T->child(0);
    if (Vec->kind() != OpKind::Vec3Ctor)
      return false;
    for (const TermPtr &Comp : Vec->children())
      if (Comp->kind() != OpKind::Float && Comp->kind() != OpKind::Int)
        return false;
    return isFlatCsg(T->child(1));
  }
  if (isBoolOp(K))
    return isFlatCsg(T->child(0)) && isFlatCsg(T->child(1));
  return false;
}

// --- Convenience constructors ----------------------------------------------

TermPtr shrinkray::tEmpty() { return makeTerm(Op(OpKind::Empty)); }
TermPtr shrinkray::tUnit() { return makeTerm(Op(OpKind::Unit)); }
TermPtr shrinkray::tCylinder() { return makeTerm(Op(OpKind::Cylinder)); }
TermPtr shrinkray::tSphere() { return makeTerm(Op(OpKind::Sphere)); }
TermPtr shrinkray::tHexagon() { return makeTerm(Op(OpKind::Hexagon)); }

TermPtr shrinkray::tFloat(double Value) {
  return makeTerm(Op::makeFloat(Value));
}
TermPtr shrinkray::tInt(int64_t Value) { return makeTerm(Op::makeInt(Value)); }
TermPtr shrinkray::tVar(std::string_view Name) {
  return makeTerm(Op::makeVar(Symbol(Name)));
}
TermPtr shrinkray::tExternal(std::string_view Name) {
  return makeTerm(Op::makeExternal(Symbol(Name)));
}

TermPtr shrinkray::tVec3(TermPtr X, TermPtr Y, TermPtr Z) {
  return makeTerm(Op(OpKind::Vec3Ctor),
                  {std::move(X), std::move(Y), std::move(Z)});
}
TermPtr shrinkray::tVec3(double X, double Y, double Z) {
  return tVec3(tFloat(X), tFloat(Y), tFloat(Z));
}

TermPtr shrinkray::tTranslate(TermPtr Vec, TermPtr Child) {
  return makeTerm(Op(OpKind::Translate), {std::move(Vec), std::move(Child)});
}
TermPtr shrinkray::tTranslate(double X, double Y, double Z, TermPtr Child) {
  return tTranslate(tVec3(X, Y, Z), std::move(Child));
}
TermPtr shrinkray::tScale(TermPtr Vec, TermPtr Child) {
  return makeTerm(Op(OpKind::Scale), {std::move(Vec), std::move(Child)});
}
TermPtr shrinkray::tScale(double X, double Y, double Z, TermPtr Child) {
  return tScale(tVec3(X, Y, Z), std::move(Child));
}
TermPtr shrinkray::tRotate(TermPtr Vec, TermPtr Child) {
  return makeTerm(Op(OpKind::Rotate), {std::move(Vec), std::move(Child)});
}
TermPtr shrinkray::tRotate(double X, double Y, double Z, TermPtr Child) {
  return tRotate(tVec3(X, Y, Z), std::move(Child));
}

TermPtr shrinkray::tUnion(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Union), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tDiff(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Diff), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tInter(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Inter), {std::move(A), std::move(B)});
}

TermPtr shrinkray::tNil() { return makeTerm(Op(OpKind::Nil)); }
TermPtr shrinkray::tCons(TermPtr Head, TermPtr Tail) {
  return makeTerm(Op(OpKind::Cons), {std::move(Head), std::move(Tail)});
}
TermPtr shrinkray::tConcat(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Concat), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tRepeat(TermPtr Elem, TermPtr Count) {
  return makeTerm(Op(OpKind::Repeat), {std::move(Elem), std::move(Count)});
}

TermPtr shrinkray::tFold(TermPtr F, TermPtr Init, TermPtr List) {
  return makeTerm(Op(OpKind::Fold),
                  {std::move(F), std::move(Init), std::move(List)});
}
TermPtr shrinkray::tMap(TermPtr F, TermPtr List) {
  return makeTerm(Op(OpKind::Map), {std::move(F), std::move(List)});
}
TermPtr shrinkray::tMapi(TermPtr F, TermPtr List) {
  return makeTerm(Op(OpKind::Mapi), {std::move(F), std::move(List)});
}

TermPtr shrinkray::tFun(std::vector<TermPtr> ParamsThenBody) {
  assert(ParamsThenBody.size() >= 2 && "Fun needs >= 1 param and a body");
#ifndef NDEBUG
  for (size_t I = 0; I + 1 < ParamsThenBody.size(); ++I)
    assert(ParamsThenBody[I]->kind() == OpKind::Var &&
           "Fun parameters must be Vars");
#endif
  return makeTerm(Op(OpKind::Fun), std::move(ParamsThenBody));
}

TermPtr shrinkray::tApp(std::vector<TermPtr> FnThenArgs) {
  assert(FnThenArgs.size() >= 2 && "App needs a function and >= 1 argument");
  return makeTerm(Op(OpKind::App), std::move(FnThenArgs));
}

TermPtr shrinkray::tAdd(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Add), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tSub(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Sub), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tMul(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Mul), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tDiv(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Div), {std::move(A), std::move(B)});
}
TermPtr shrinkray::tSin(TermPtr A) {
  return makeTerm(Op(OpKind::Sin), {std::move(A)});
}
TermPtr shrinkray::tCos(TermPtr A) {
  return makeTerm(Op(OpKind::Cos), {std::move(A)});
}
TermPtr shrinkray::tArctan(TermPtr A, TermPtr B) {
  return makeTerm(Op(OpKind::Arctan), {std::move(A), std::move(B)});
}

TermPtr shrinkray::tOpRef(OpKind BoolOp) {
  return makeTerm(Op::makeOpRef(BoolOp));
}

TermPtr shrinkray::tUnionAll(const std::vector<TermPtr> &Items) {
  if (Items.empty())
    return tEmpty();
  TermPtr Acc = Items.back();
  for (size_t I = Items.size() - 1; I > 0; --I)
    Acc = tUnion(Items[I - 1], Acc);
  return Acc;
}

TermPtr shrinkray::tList(const std::vector<TermPtr> &Items) {
  TermPtr Acc = tNil();
  for (size_t I = Items.size(); I > 0; --I)
    Acc = tCons(Items[I - 1], Acc);
  return Acc;
}

TermPtr shrinkray::tIndexList(int64_t N) {
  assert(N >= 0 && "negative index-list length");
  TermPtr Acc = tNil();
  for (int64_t I = N; I > 0; --I)
    Acc = tCons(tInt(I - 1), Acc);
  return Acc;
}
