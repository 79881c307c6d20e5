//===-- egraph/UnionFind.h - Disjoint-set forest ----------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disjoint-set forest underlying e-class ids. Uses path halving on find;
/// union order is decided by the caller (the e-graph keeps the class with
/// more e-nodes as the root to minimize data movement).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_UNIONFIND_H
#define SHRINKRAY_EGRAPH_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace shrinkray {

/// E-class id. Ids are dense and never reused; non-canonical ids remain
/// valid arguments to find() forever.
using EClassId = uint32_t;

/// Disjoint-set forest over EClassIds.
class UnionFind {
public:
  /// Creates a fresh singleton set and returns its id.
  EClassId makeSet() {
    EClassId Id = static_cast<EClassId>(Parents.size());
    Parents.push_back(Id);
    return Id;
  }

  size_t size() const { return Parents.size(); }

  /// Canonical representative of \p Id (with path halving). On a fully
  /// compressed forest (see compressAll) this performs no writes, which is
  /// what makes concurrent find() calls from the Runner's parallel search
  /// phase race-free: path halving only fires on chains of length >= 2,
  /// and compressAll leaves none.
  EClassId find(EClassId Id) const {
    assert(Id < Parents.size() && "id out of range");
    while (Parents[Id] != Id) {
      EClassId Grand = Parents[Parents[Id]];
      if (Parents[Id] != Grand)
        Parents[Id] = Grand;
      Id = Grand;
    }
    return Id;
  }

  /// Compresses every path so each id points directly at its root. After
  /// this, find() is write-free until the next unite() — required before
  /// handing the forest to concurrent readers.
  void compressAll() const {
    for (EClassId Id = 0; Id < Parents.size(); ++Id)
      Parents[Id] = find(Id);
  }

  /// Makes \p Root the representative of \p Child's set. Both must already
  /// be canonical and distinct; the caller chooses orientation.
  void unite(EClassId Root, EClassId Child) {
    assert(find(Root) == Root && "Root not canonical");
    assert(find(Child) == Child && "Child not canonical");
    assert(Root != Child && "uniting a set with itself");
    Parents[Child] = Root;
  }

  /// Raw parent slot of \p Id, possibly non-canonical and uncompressed.
  EClassId rawParent(EClassId Id) const {
    assert(Id < Parents.size() && "id out of range");
    return Parents[Id];
  }

private:
  // mutable: find() compresses paths but is logically const.
  mutable std::vector<EClassId> Parents;
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_UNIONFIND_H
