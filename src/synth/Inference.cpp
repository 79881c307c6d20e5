//===-- synth/Inference.cpp - Function and loop inference -----------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of function and loop inference (paper Sec. 4 and 5).
/// Queries the solvers for closed forms over a determinized list's
/// transform vectors, builds the equivalent Mapi / nested-Fold / irregular
/// programs, and merges them into the list's e-class so extraction can
/// choose them.
///
//===----------------------------------------------------------------------===//

#include "synth/Inference.h"

#include "egraph/Pattern.h"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

std::string InferenceRecord::loopNotation() const {
  std::ostringstream Os;
  switch (K) {
  case Kind::Mapi:
    Os << "n1";
    break;
  case Kind::NestedFold:
    Os << "n" << Bounds.size();
    break;
  case Kind::IrregularFold:
    Os << "irr";
    break;
  }
  for (int64_t B : Bounds)
    Os << "," << B;
  return Os.str();
}

std::string InferenceRecord::formNotation() const {
  // Unique classes in order of sophistication; constants degrade to d1.
  bool HasD1 = false, HasD2 = false, HasTheta = false;
  for (FormKind F : Forms) {
    HasD1 |= F == FormKind::Poly1 || F == FormKind::Constant;
    HasD2 |= F == FormKind::Poly2;
    HasTheta |= F == FormKind::Trig;
  }
  std::ostringstream Os;
  bool First = true;
  auto piece = [&](const char *Name) {
    if (!First)
      Os << ",";
    Os << Name;
    First = false;
  };
  if (HasD2)
    piece("d2");
  if (HasTheta)
    piece("theta");
  if (HasD1 && !HasD2 && !HasTheta)
    piece("d1");
  if (First)
    piece("d1");
  return Os.str();
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

const char *BaseHole = "base";
const char *ChildHole = "child";

/// Instantiates a term containing `?base` / `?child` holes into the graph.
EClassId addWithHole(EGraph &G, const TermPtr &T, const char *Hole,
                     EClassId Filling) {
  Pattern P(T);
  Subst S;
  S.bind(Symbol(Hole), Filling);
  return P.instantiate(G, S);
}

TermPtr holeVar(const char *Hole) {
  return makeTerm(Op::makePatVar(Symbol(Hole)));
}

/// Per-layer solved component forms.
struct LayerForms {
  std::array<std::vector<ClosedForm>, 3> Comp;
};

/// Appends \p Module to \p Modules unless already present (records stay
/// small; first-use order is the reporting order).
void recordModule(const char *Module, std::vector<std::string> &Modules) {
  if (!Module || !*Module)
    return;
  for (const std::string &Existing : Modules)
    if (Existing == Module)
      return;
  Modules.emplace_back(Module);
}

/// Collects the used (non-constant when possible) form kinds of a layer,
/// plus the pipeline modules that produced them.
void recordForms(const std::array<const ClosedForm *, 3> &Picked,
                 InferenceRecord &Rec) {
  for (const ClosedForm *F : Picked) {
    if (F->Kind != FormKind::Constant)
      Rec.Forms.push_back(F->Kind);
    recordModule(F->Module, Rec.Modules);
  }
}

/// Builds the Vec3 expression term of one layer under index variable `i`,
/// applying the rotation heuristic to Rotate layers.
TermPtr layerVecTerm(OpKind LayerKind,
                     const std::array<const ClosedForm *, 3> &Picked) {
  std::array<TermPtr, 3> Exprs;
  for (int C = 0; C < 3; ++C) {
    int64_t Period = 0;
    if (LayerKind == OpKind::Rotate)
      Period = rotationPeriod(*Picked[C]);
    Exprs[C] = Picked[C]->toTerm(tVar("i"), Period);
  }
  return tVec3(Exprs[0], Exprs[1], Exprs[2]);
}

/// True iff every element has (within tolerance) the same vector in the
/// given layer.
bool layerIsInvariant(const std::vector<Vec3> &Vectors) {
  for (const Vec3 &V : Vectors)
    if (!V.approxEquals(Vectors[0], 1e-9))
      return false;
  return true;
}

/// Finds the class of the solid under the outermost affine layer, shared by
/// all elements; nullopt when elements disagree.
std::optional<EClassId> sharedOuterChild(const EGraph &G,
                                         const ChainDecomposition &D) {
  std::optional<EClassId> Shared;
  for (size_t I = 0; I < D.numElements(); ++I) {
    bool Found = false;
    for (ENodeId NId : G.eclass(D.Elements[I]).Nodes) {
      const ENode &N = G.node(NId);
      if (N.kind() != D.LayerKinds[0])
        continue;
      // Match the vector recorded by the determinizer.
      bool VecMatches = false;
      for (ENodeId VId : G.eclass(N.child(0)).Nodes) {
        const ENode &VN = G.node(VId);
        if (VN.kind() != OpKind::Vec3Ctor)
          continue;
        Vec3 V{G.data(VN.child(0)).NumConst.value_or(1e300),
               G.data(VN.child(1)).NumConst.value_or(1e300),
               G.data(VN.child(2)).NumConst.value_or(1e300)};
        if (V.approxEquals(D.Vectors[0][I], 1e-9)) {
          VecMatches = true;
          break;
        }
      }
      if (!VecMatches)
        continue;
      EClassId Child = G.find(N.child(1));
      if (!Shared)
        Shared = Child;
      if (*Shared != Child)
        return std::nullopt;
      Found = true;
      break;
    }
    if (!Found)
      return std::nullopt;
  }
  return Shared;
}

} // namespace

//===----------------------------------------------------------------------===//
// Function inference (nested Mapi)
//===----------------------------------------------------------------------===//

std::vector<InferenceRecord>
shrinkray::inferFunctions(EGraph &G, EClassId ListClass,
                          const ChainDecomposition &D,
                          const FunctionSolver &Solver) {
  std::vector<InferenceRecord> Records;
  const size_t N = D.numElements();
  if (N < 2 || D.numLayers() == 0)
    return Records;

  // Solve every layer component; bail if any has no closed form (the list
  // as a whole must be covered for the rewrite to be semantics-preserving).
  std::vector<LayerForms> Layers(D.numLayers());
  for (size_t L = 0; L < D.numLayers(); ++L) {
    for (int C = 0; C < 3; ++C) {
      std::vector<double> Vals(N);
      for (size_t I = 0; I < N; ++I)
        Vals[I] = D.Vectors[L][I][C];
      Layers[L].Comp[C] = Solver.solveAll(Vals);
      if (Layers[L].Comp[C].empty())
        return Records;
    }
  }

  // Variant selectors: primary (simplest form per component) and
  // trig-preferred (diversity; paper Sec. 6.3).
  auto pick = [&](const std::vector<ClosedForm> &Forms,
                  bool PreferTrig) -> const ClosedForm * {
    if (PreferTrig)
      for (const ClosedForm &F : Forms)
        if (F.Kind == FormKind::Trig)
          return &F;
    return &Forms.front();
  };

  std::set<std::string> SeenVariants;
  for (bool PreferTrig : {false, true}) {
    InferenceRecord Rec;
    Rec.K = InferenceRecord::Kind::Mapi;
    Rec.Bounds = {static_cast<int64_t>(N)};

    TermPtr Inner =
        tRepeat(holeVar(BaseHole), tInt(static_cast<int64_t>(N)));
    std::ostringstream Signature;
    for (size_t LPlus1 = D.numLayers(); LPlus1 > 0; --LPlus1) {
      const size_t L = LPlus1 - 1;
      std::array<const ClosedForm *, 3> Picked;
      for (int C = 0; C < 3; ++C) {
        Picked[C] = pick(Layers[L].Comp[C], PreferTrig);
        Signature << static_cast<int>(Picked[C]->Kind) << ",";
      }
      recordForms(Picked, Rec);
      TermPtr Body = makeTerm(Op(D.LayerKinds[L]),
                              {layerVecTerm(D.LayerKinds[L], Picked),
                               tVar("c")});
      Inner = tMapi(tFun({tVar("i"), tVar("c"), Body}), Inner);
    }

    // Skip the trig variant when it selects exactly the same forms.
    if (!SeenVariants.insert(Signature.str()).second)
      continue;

    EClassId NewList = addWithHole(G, Inner, BaseHole, D.Base);
    G.merge(ListClass, NewList);
    Rec.Description = "Mapi over " + std::to_string(N) + " elements, " +
                      std::to_string(D.numLayers()) + " layer(s)";
    Records.push_back(std::move(Rec));
  }
  return Records;
}

//===----------------------------------------------------------------------===//
// Regular nested-loop inference (m-factorization)
//===----------------------------------------------------------------------===//

namespace {

/// Enumerates the non-trivial m-factorizations of n (paper Fig. 13),
/// e.g. 2-factorizations of 4 = [(2,2)]; 3-factorizations of 8 = [(2,2,2)].
std::vector<std::vector<int64_t>> factorizations(int64_t N, int M) {
  std::vector<std::vector<int64_t>> Out;
  if (M == 2) {
    for (int64_t P = 2; P * 2 <= N; ++P)
      if (N % P == 0 && N / P >= 2)
        Out.push_back({P, N / P});
  } else if (M == 3) {
    for (int64_t P = 2; P * 4 <= N; ++P) {
      if (N % P != 0)
        continue;
      for (int64_t Q = 2; Q * 2 <= N / P; ++Q)
        if ((N / P) % Q == 0 && N / (P * Q) >= 2)
          Out.push_back({P, Q, N / (P * Q)});
    }
  }
  return Out;
}

/// The m-index-set of element t under a factorization (row-major order).
std::vector<int64_t> indexTuple(int64_t T,
                                const std::vector<int64_t> &Factors) {
  std::vector<int64_t> Idx(Factors.size());
  for (size_t D = Factors.size(); D > 0; --D) {
    Idx[D - 1] = T % Factors[D - 1];
    T /= Factors[D - 1];
  }
  return Idx;
}

/// Builds sum_k a_k * Var(names[k]) + c from a coefficient vector.
TermPtr linearTerm(const std::vector<double> &Coef,
                   const std::vector<const char *> &Names) {
  TermPtr Acc;
  for (size_t K = 0; K < Names.size(); ++K) {
    if (Coef[K + 1] == 0.0)
      continue;
    TermPtr Piece = scaledIndexTerm(Coef[K + 1], tVar(Names[K]));
    Acc = Acc ? tAdd(std::move(Acc), std::move(Piece)) : std::move(Piece);
  }
  double C = Coef[0];
  if (!Acc)
    return numericLiteral(C);
  if (C == 0.0)
    return Acc;
  if (C < 0.0)
    return tSub(std::move(Acc), numericLiteral(-C));
  return tAdd(std::move(Acc), numericLiteral(C));
}

} // namespace

std::vector<InferenceRecord>
shrinkray::inferLoops(EGraph &G, EClassId ListClass,
                      const ChainDecomposition &D,
                      const FunctionSolver &Solver) {
  std::vector<InferenceRecord> Records;
  const size_t N = D.numElements();
  if (N < 4 || D.numLayers() == 0)
    return Records;

  // Loop inference addresses only the outermost transformations; everything
  // underneath must be shared across elements (paper Sec. 5).
  for (size_t L = 1; L < D.numLayers(); ++L)
    if (!layerIsInvariant(D.Vectors[L]))
      return Records;
  std::optional<EClassId> Child = sharedOuterChild(G, D);
  if (!Child)
    return Records;

  static const std::vector<const char *> VarNames = {"i", "j", "k"};
  for (int M : {2, 3}) {
    for (const std::vector<int64_t> &Factors :
         factorizations(static_cast<int64_t>(N), M)) {
      // Fit each vector component as a linear form of the index tuple.
      std::vector<std::vector<double>> Indices(N);
      for (size_t T = 0; T < N; ++T) {
        std::vector<int64_t> Idx =
            indexTuple(static_cast<int64_t>(T), Factors);
        for (int64_t V : Idx)
          Indices[T].push_back(static_cast<double>(V));
      }
      std::array<std::vector<double>, 3> Coef;
      bool AllFit = true;
      for (int C = 0; C < 3 && AllFit; ++C) {
        std::vector<double> Vals(N);
        for (size_t T = 0; T < N; ++T)
          Vals[T] = D.Vectors[0][T][C];
        std::optional<std::vector<double>> Fit =
            Solver.fitLinearN(Indices, Vals);
        if (!Fit) {
          AllFit = false;
          break;
        }
        Coef[C] = *Fit;
      }
      if (!AllFit)
        continue;

      // Build: Fold (Fun i -> ... Fold (Fun k -> T(expr, ?child),
      //        Nil, idx) ..., Nil, idx) — a list-producing flat-map nest.
      std::vector<const char *> Names(VarNames.begin(),
                                      VarNames.begin() + M);
      TermPtr Body = makeTerm(
          Op(D.LayerKinds[0]),
          {tVec3(linearTerm(Coef[0], Names), linearTerm(Coef[1], Names),
                 linearTerm(Coef[2], Names)),
           holeVar(ChildHole)});
      TermPtr ListTerm = Body;
      for (int Level = M; Level > 0; --Level)
        ListTerm = tFold(tFun({tVar(VarNames[Level - 1]), ListTerm}), tNil(),
                         tIndexList(Factors[Level - 1]));

      EClassId NewList = addWithHole(G, ListTerm, ChildHole, *Child);
      G.merge(ListClass, NewList);

      InferenceRecord Rec;
      Rec.K = InferenceRecord::Kind::NestedFold;
      Rec.Bounds = Factors;
      Rec.Forms.assign(1, FormKind::Poly1);
      // Multi-index linear fits come from the facade, not a module.
      recordModule("linear", Rec.Modules);
      std::ostringstream Os;
      Os << M << "-nested loop over";
      for (int64_t F : Factors)
        Os << " " << F;
      Rec.Description = Os.str();
      Records.push_back(std::move(Rec));
    }
  }
  return Records;
}

//===----------------------------------------------------------------------===//
// Irregular-loop inference
//===----------------------------------------------------------------------===//

std::vector<InferenceRecord>
shrinkray::inferIrregular(EGraph &G, EClassId ListClass,
                          const ChainDecomposition &D,
                          const FunctionSolver &Solver) {
  std::vector<InferenceRecord> Records;
  const size_t N = D.numElements();
  if (N < 3 || D.numLayers() == 0)
    return Records;
  for (size_t L = 1; L < D.numLayers(); ++L)
    if (!layerIsInvariant(D.Vectors[L]))
      return Records;
  std::optional<EClassId> Child = sharedOuterChild(G, D);
  if (!Child)
    return Records;

  // Group contiguous runs sharing the x coordinate (the list was sorted by
  // the list-manipulation stage).
  struct Group {
    double X;
    size_t Begin, End; // [Begin, End)
  };
  std::vector<Group> Groups;
  for (size_t I = 0; I < N; ++I) {
    if (!Groups.empty() &&
        std::fabs(Groups.back().X - D.Vectors[0][I].X) <= 1e-9) {
      Groups.back().End = I + 1;
      continue;
    }
    Groups.push_back({D.Vectors[0][I].X, I, I + 1});
  }
  // Irregularity means: several groups, not all the same size (otherwise
  // the regular m-factorization already covers it), each nontrivial.
  if (Groups.size() < 2 || Groups.size() == N)
    return Records;
  bool SameSize = true;
  for (const Group &Gr : Groups)
    SameSize &= (Gr.End - Gr.Begin) == (Groups[0].End - Groups[0].Begin);
  if (SameSize)
    return Records;

  // Per group: closed forms for y and z over the in-group index.
  std::vector<TermPtr> GroupLists;
  InferenceRecord Rec;
  Rec.K = InferenceRecord::Kind::IrregularFold;
  for (const Group &Gr : Groups) {
    size_t Size = Gr.End - Gr.Begin;
    std::vector<double> Ys(Size), Zs(Size);
    for (size_t I = 0; I < Size; ++I) {
      Ys[I] = D.Vectors[0][Gr.Begin + I].Y;
      Zs[I] = D.Vectors[0][Gr.Begin + I].Z;
    }
    std::optional<ClosedForm> FormY = Solver.solveSequence(Ys);
    std::optional<ClosedForm> FormZ = Solver.solveSequence(Zs);
    if (!FormY || !FormZ)
      return Records;
    Rec.Forms.push_back(FormY->Kind);
    recordModule(FormY->Module, Rec.Modules);
    recordModule(FormZ->Module, Rec.Modules);
    Rec.Bounds.push_back(static_cast<int64_t>(Size));

    TermPtr Vec = tVec3(numericLiteral(Gr.X), FormY->toTerm(tVar("i")),
                        FormZ->toTerm(tVar("i")));
    if (Size == 1) {
      // A lone element: reference the shared child class directly.
      TermPtr Elem =
          makeTerm(Op(D.LayerKinds[0]), {Vec, holeVar(ChildHole)});
      GroupLists.push_back(tCons(Elem, tNil()));
    } else {
      // Inside the Mapi the transformed solid is the bound parameter c.
      TermPtr Elem = makeTerm(Op(D.LayerKinds[0]), {Vec, tVar("c")});
      GroupLists.push_back(
          tMapi(tFun({tVar("i"), tVar("c"), Elem}),
                tRepeat(holeVar(ChildHole),
                        tInt(static_cast<int64_t>(Size)))));
    }
  }

  // Concat the per-group lists: the "fold over the folds" of Sec. 5.
  TermPtr ListTerm = GroupLists.back();
  for (size_t I = GroupLists.size() - 1; I > 0; --I)
    ListTerm = tConcat(GroupLists[I - 1], ListTerm);

  EClassId NewList = addWithHole(G, ListTerm, ChildHole, *Child);
  G.merge(ListClass, NewList);
  Rec.Description =
      "irregular grouping into " + std::to_string(Groups.size()) + " runs";
  Records.push_back(std::move(Rec));
  return Records;
}
