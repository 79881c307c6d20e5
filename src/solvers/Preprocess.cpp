//===-- solvers/Preprocess.cpp - Solver pipeline stage 0 ------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage-0 implementation: union-operand deduplication over flat CSG terms
/// and the O(n) sequence profile behind the stage-1 pruning tests.
///
//===----------------------------------------------------------------------===//

#include "solvers/Preprocess.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_set>

using namespace shrinkray;

SequenceProfile shrinkray::sequenceProfile(const std::vector<double> &Ys) {
  SequenceProfile P;
  P.N = Ys.size();
  if (P.N == 0)
    return P;
  P.Min = P.Max = Ys[0];
  std::set<double> Distinct;
  for (double Y : Ys) {
    P.Min = std::min(P.Min, Y);
    P.Max = std::max(P.Max, Y);
    P.MaxAbs = std::max(P.MaxAbs, std::fabs(Y));
    Distinct.insert(Y);
  }
  P.UniqueValues = Distinct.size();
  for (size_t I = 0; I + 2 < P.N; ++I)
    P.MaxAbsD2 =
        std::max(P.MaxAbsD2, std::fabs(Ys[I + 2] - 2.0 * Ys[I + 1] + Ys[I]));
  for (size_t I = 0; I + 3 < P.N; ++I)
    P.MaxAbsD3 = std::max(
        P.MaxAbsD3,
        std::fabs(Ys[I + 3] - 3.0 * Ys[I + 2] + 3.0 * Ys[I + 1] - Ys[I]));
  return P;
}

namespace {

/// A per-spine set of already-seen operands. Terms are interned, so
/// structural equality is pointer identity; holding TermPtr keys keeps the
/// operands alive (no address reuse while the set is in scope).
class SeenOperands {
public:
  /// Returns true when an equal term was already recorded; records it
  /// otherwise.
  bool seenOrRecord(const TermPtr &T) { return !Seen.insert(T).second; }

private:
  std::unordered_set<TermPtr> Seen;
};

/// One pending subterm of the canonicalization walk.
///
/// Every maximal Union tree gets its own operand set: a Union reached
/// outside a spine opens one (OwnSeen), its Union children share it, and
/// every other node canonicalizes its children outside any spine. A spine
/// operand (a non-Union node with a Seen set) is canonicalized first, so
/// equal operands compare equal even when their internals dedupe
/// differently, and is dropped (a null result) when already seen.
struct Frame {
  const TermPtr *T;                     ///< a child slot of a live term
  SeenOperands *Seen;                   ///< the enclosing spine's, or null
  std::unique_ptr<SeenOperands> OwnSeen; ///< set when T opens a spine
  std::vector<TermPtr> Kids;            ///< finished children, in order
  bool Changed = false;
};

/// The finished form of \p F's term once all its children are done:
/// nullptr when every operand of a spine subtree was a duplicate, and the
/// original pointer when nothing changed underneath.
TermPtr finish(Frame &F) {
  const TermPtr &Orig = *F.T;
  if (Orig->kind() == OpKind::Union) {
    TermPtr &L = F.Kids[0], &R = F.Kids[1];
    if (!L || !R) {
      // The first operand is always kept, so a spine never vanishes.
      assert((L || R || !F.OwnSeen) && "union spine deduped to nothing");
      return L ? std::move(L) : std::move(R);
    }
    if (!F.Changed)
      return Orig;
    return makeTerm(Orig->op(), std::move(F.Kids));
  }
  TermPtr C = F.Changed ? makeTerm(Orig->op(), std::move(F.Kids)) : Orig;
  if (F.Seen && F.Seen->seenOrRecord(C))
    return nullptr;
  return C;
}

/// Canonicalizes \p Root with an explicit stack, so spine length and
/// nesting depth are bounded by memory rather than by the thread's stack.
/// Returns the original pointer when nothing changed.
TermPtr canonTerm(const TermPtr &Root) {
  std::vector<Frame> Stack;
  auto push = [&](const TermPtr &T, SeenOperands *Seen) {
    Frame F{&T, Seen, nullptr, {}, false};
    if (T->kind() == OpKind::Union && !Seen) {
      F.OwnSeen = std::make_unique<SeenOperands>();
      F.Seen = F.OwnSeen.get();
    }
    F.Kids.reserve(T->numChildren());
    Stack.push_back(std::move(F));
  };
  push(Root, nullptr);
  TermPtr Done;
  while (true) {
    Frame &F = Stack.back();
    const Term &T = **F.T;
    if (F.Kids.size() < T.numChildren()) {
      // Union children stay in the spine; any other node's children are
      // canonicalized on their own.
      push(T.child(F.Kids.size()),
           T.kind() == OpKind::Union ? F.Seen : nullptr);
      continue;
    }
    Done = finish(F);
    Stack.pop_back();
    if (Stack.empty())
      return Done;
    Frame &Parent = Stack.back();
    Parent.Changed |= Done != (*Parent.T)->child(Parent.Kids.size());
    Parent.Kids.push_back(std::move(Done));
  }
}

} // namespace

TermPtr shrinkray::dedupeUnionOperands(const TermPtr &FlatCsg) {
  return canonTerm(FlatCsg);
}
