//===-- synth/Determinize.cpp - List determinization ----------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the determinizer (paper Sec. 4.2). Walks each fold
/// list's Cons spine, enumerates candidate affine decompositions per
/// element, and intersects them into whole-list ChainDecompositions: one
/// transform-kind sequence and one base class shared by every element, the
/// shape the function solvers require.
///
//===----------------------------------------------------------------------===//

#include "synth/Determinize.h"

#include <algorithm>
#include <map>
#include <set>

using namespace shrinkray;

const ENode *shrinkray::spineNode(const EGraph &G, EClassId ListClass) {
  const ENode *Cons = nullptr, *Nil = nullptr;
  for (ENodeId NId : G.eclass(ListClass).Nodes) {
    const ENode &N = G.node(NId);
    if (N.kind() == OpKind::Cons)
      Cons = &N;
    else if (N.kind() == OpKind::Nil)
      Nil = &N;
  }
  return Cons ? Cons : Nil;
}

std::optional<std::vector<EClassId>>
shrinkray::spineElements(const EGraph &G, EClassId ListClass) {
  std::vector<EClassId> Out;
  std::set<EClassId> Visited;
  EClassId Cur = G.find(ListClass);
  while (true) {
    if (!Visited.insert(Cur).second)
      return std::nullopt; // cyclic spine
    const ENode *N = spineNode(G, Cur);
    if (!N)
      return std::nullopt; // not a pure spine
    if (N->kind() == OpKind::Nil)
      return Out;
    Out.push_back(G.find(N->child(0)));
    Cur = G.find(N->child(1));
  }
}

/// Reads the literal Vec3 of an affine e-node's vector class, if all three
/// components are analysis constants.
static std::optional<Vec3> literalVecOfClass(const EGraph &G,
                                             EClassId VecClass) {
  for (ENodeId NId : G.eclass(VecClass).Nodes) {
    const ENode &N = G.node(NId);
    if (N.kind() != OpKind::Vec3Ctor)
      continue;
    const AnalysisData &X = G.data(N.child(0));
    const AnalysisData &Y = G.data(N.child(1));
    const AnalysisData &Z = G.data(N.child(2));
    if (X.NumConst && Y.NumConst && Z.NumConst)
      return Vec3{*X.NumConst, *Y.NumConst, *Z.NumConst};
  }
  return std::nullopt;
}

static void chainsRec(const EGraph &G, EClassId Element, size_t MaxDepth,
                      size_t MaxChains, std::vector<AffineLayer> &Prefix,
                      std::set<EClassId> &OnPath,
                      std::vector<AffineChain> &Out) {
  if (Out.size() >= MaxChains)
    return;
  Element = G.find(Element);

  // Every class is a valid stopping point (zero further layers).
  Out.push_back(AffineChain{Prefix, Element});

  if (Prefix.size() >= MaxDepth || !OnPath.insert(Element).second)
    return;
  for (ENodeId NId : G.eclass(Element).Nodes) {
    const ENode &N = G.node(NId);
    if (!isAffineOp(N.kind()))
      continue;
    std::optional<Vec3> V = literalVecOfClass(G, N.child(0));
    if (!V)
      continue;
    Prefix.push_back(AffineLayer{N.kind(), *V});
    chainsRec(G, N.child(1), MaxDepth, MaxChains, Prefix, OnPath, Out);
    Prefix.pop_back();
    if (Out.size() >= MaxChains)
      break;
  }
  OnPath.erase(Element);
}

std::vector<AffineChain> shrinkray::enumerateChains(const EGraph &G,
                                                    EClassId Element,
                                                    size_t MaxDepth,
                                                    size_t MaxChains) {
  std::vector<AffineChain> Out;
  std::vector<AffineLayer> Prefix;
  std::set<EClassId> OnPath;
  chainsRec(G, Element, MaxDepth, MaxChains, Prefix, OnPath, Out);
  // Deepest decompositions first; ties broken by kind sequence for
  // determinism.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const AffineChain &A, const AffineChain &B) {
                     if (A.Layers.size() != B.Layers.size())
                       return A.Layers.size() > B.Layers.size();
                     for (size_t I = 0; I < A.Layers.size(); ++I)
                       if (A.Layers[I].Kind != B.Layers[I].Kind)
                         return A.Layers[I].Kind < B.Layers[I].Kind;
                     return false;
                   });
  return Out;
}

std::vector<ChainDecomposition>
shrinkray::determinize(const EGraph &G, EClassId ListClass,
                       size_t MaxResults) {
  std::vector<ChainDecomposition> Results;
  std::optional<std::vector<EClassId>> Elements = spineElements(G, ListClass);
  if (!Elements || Elements->empty())
    return Results;

  // Dedup-aware chain enumeration: chains are a pure function of the
  // canonical element class, and duplicate-heavy lists (the recorded
  // pathology: n identical elements) would otherwise redo the exponential
  // enumeration n times per template. Memoize per distinct class.
  std::map<EClassId, std::vector<AffineChain>> ChainCache;
  auto chainsOf = [&](EClassId Elem) -> const std::vector<AffineChain> & {
    auto [It, Inserted] = ChainCache.try_emplace(G.find(Elem));
    if (Inserted)
      It->second = enumerateChains(G, It->first);
    return It->second;
  };
  std::set<EClassId> DistinctElements;
  for (EClassId Elem : *Elements)
    DistinctElements.insert(G.find(Elem));

  // Candidate (kind-sequence, base) templates come from the first element;
  // the heuristic then checks every other element for a matching chain
  // (paper: "first picking an element and respecting the same order of
  // affine transformations for all other elements").
  const std::vector<AffineChain> &FirstChains = chainsOf((*Elements)[0]);

  for (const AffineChain &Template : FirstChains) {
    if (Results.size() >= MaxResults)
      break;
    if (Template.Layers.empty())
      continue; // no structure to expose

    ChainDecomposition D;
    D.Base = G.find(Template.Base);
    D.Elements = *Elements;
    D.UniqueElements = DistinctElements.size();
    D.Vectors.assign(Template.Layers.size(), {});
    for (size_t L = 0; L < Template.Layers.size(); ++L)
      D.LayerKinds.push_back(Template.Layers[L].Kind);

    bool AllMatch = true;
    for (EClassId Elem : *Elements) {
      const std::vector<AffineChain> &Chains = chainsOf(Elem);
      const AffineChain *Match = nullptr;
      for (const AffineChain &C : Chains) {
        if (C.Layers.size() != Template.Layers.size() ||
            G.find(C.Base) != D.Base)
          continue;
        bool KindsMatch = true;
        for (size_t L = 0; L < C.Layers.size(); ++L)
          if (C.Layers[L].Kind != D.LayerKinds[L]) {
            KindsMatch = false;
            break;
          }
        if (KindsMatch) {
          Match = &C;
          break;
        }
      }
      if (!Match) {
        AllMatch = false;
        break;
      }
      for (size_t L = 0; L < Match->Layers.size(); ++L)
        D.Vectors[L].push_back(Match->Layers[L].V);
    }
    if (!AllMatch)
      continue;

    // Dedupe decompositions with identical kind sequences (a shorter chain
    // of an already-accepted deeper one adds nothing).
    bool Duplicate = false;
    for (const ChainDecomposition &Existing : Results)
      if (Existing.LayerKinds == D.LayerKinds &&
          Existing.Base == D.Base) {
        Duplicate = true;
        break;
      }
    if (!Duplicate)
      Results.push_back(std::move(D));
  }
  return Results;
}
