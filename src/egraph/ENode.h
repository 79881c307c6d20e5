//===-- egraph/ENode.h - E-nodes ---------------------------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An e-node is an operator applied to e-class ids (paper Sec. 3.1: "each
/// enode represents an operator applied to some eclasses"). E-nodes are the
/// keys of the e-graph's hash-consing table once their children are
/// canonicalized.
///
/// Children are stored inline: every fixed-arity CAD operator takes at
/// most three arguments, so only the variadic Fun/App nodes wider than
/// that own a heap block. A graph walk over a node therefore touches the
/// node's own bytes and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_ENODE_H
#define SHRINKRAY_EGRAPH_ENODE_H

#include "cad/Op.h"
#include "egraph/UnionFind.h"
#include "support/Hashing.h"

#include <cassert>
#include <cstring>
#include <initializer_list>
#include <vector>

namespace shrinkray {

/// Index of an e-node in its graph's node table (EGraph::node()). Dense,
/// assigned in creation order, never reused.
using ENodeId = uint32_t;

/// A read-only view of an e-node's children.
class ChildSpan {
public:
  ChildSpan(const EClassId *Data, size_t Size) : Data(Data), Size(Size) {}
  const EClassId *begin() const { return Data; }
  const EClassId *end() const { return Data + Size; }
  size_t size() const { return Size; }
  EClassId operator[](size_t I) const {
    assert(I < Size && "child index out of range");
    return Data[I];
  }
  EClassId back() const { return (*this)[Size - 1]; }

private:
  const EClassId *Data;
  size_t Size;
};

/// An operator applied to argument e-classes.
class ENode {
public:
  /// Children stored inside the node; wider nodes spill to the heap.
  static constexpr uint32_t InlineArity = 3;

  Op Operator;

  ENode(Op O, std::initializer_list<EClassId> Kids)
      : ENode(std::move(O), Kids.begin(), Kids.size()) {}
  ENode(Op O, const std::vector<EClassId> &Kids)
      : ENode(std::move(O), Kids.data(), Kids.size()) {}
  ENode(Op O, const EClassId *Kids, size_t N)
      : Operator(std::move(O)), Arity(static_cast<uint32_t>(N)) {
    if (Arity > InlineArity)
      setHeap(new EClassId[N]);
    if (N)
      std::memcpy(data(), Kids, N * sizeof(EClassId));
  }

  ENode(const ENode &O) : ENode(O.Operator, O.data(), O.Arity) {}
  ENode(ENode &&O) noexcept : Operator(std::move(O.Operator)), Arity(O.Arity) {
    std::memcpy(Slots, O.Slots, sizeof Slots); // children or heap pointer
    O.Arity = 0;
  }
  ENode &operator=(const ENode &O) {
    if (this != &O)
      *this = ENode(O);
    return *this;
  }
  ENode &operator=(ENode &&O) noexcept {
    if (this != &O) {
      release();
      Operator = std::move(O.Operator);
      Arity = O.Arity;
      std::memcpy(Slots, O.Slots, sizeof Slots);
      O.Arity = 0;
    }
    return *this;
  }
  ~ENode() { release(); }

  OpKind kind() const { return Operator.kind(); }

  size_t arity() const { return Arity; }
  ChildSpan children() const { return {data(), Arity}; }
  EClassId child(size_t I) const { return children()[I]; }
  void setChild(size_t I, EClassId Id) {
    assert(I < Arity && "child index out of range");
    data()[I] = Id;
  }

  friend bool operator==(const ENode &A, const ENode &B) {
    return A.Operator == B.Operator && A.Arity == B.Arity &&
           std::memcmp(A.data(), B.data(), A.Arity * sizeof(EClassId)) == 0;
  }
  friend bool operator!=(const ENode &A, const ENode &B) { return !(A == B); }

  size_t hash() const {
    size_t Seed = Operator.hash();
    for (EClassId Kid : children())
      hashCombine(Seed, std::hash<EClassId>()(Kid));
    return Seed;
  }

private:
  // A spilled node keeps its heap pointer in the slot bytes (copied, not
  // type-punned), so the node stays 4-byte aligned after the Op: 48 bytes.
  static_assert(sizeof(EClassId *) <= InlineArity * sizeof(EClassId),
                "heap pointer must fit the inline child slots");
  EClassId *heap() const {
    EClassId *P;
    std::memcpy(&P, Slots, sizeof P);
    return P;
  }
  void setHeap(EClassId *P) { std::memcpy(Slots, &P, sizeof P); }
  const EClassId *data() const {
    return Arity <= InlineArity ? Slots : heap();
  }
  EClassId *data() { return Arity <= InlineArity ? Slots : heap(); }
  void release() {
    if (Arity > InlineArity)
      delete[] heap();
  }

  uint32_t Arity;
  EClassId Slots[InlineArity] = {};
};

struct ENodeHash {
  size_t operator()(const ENode &N) const noexcept { return N.hash(); }
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_ENODE_H
