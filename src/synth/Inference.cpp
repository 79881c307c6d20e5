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

#include <array>
#include <cassert>
#include <cmath>
#include <optional>
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

/// Loop-variable names, interned once: constructing a Symbol takes the
/// process-wide intern lock, which per-site insertion must not.
struct LoopVars {
  std::array<Symbol, 3> Index{Symbol("i"), Symbol("j"), Symbol("k")};
  Symbol C{"c"};
};

const LoopVars &loopVars() {
  static const LoopVars Vars;
  return Vars;
}

// Inferred programs are added straight into the graph, children first and
// left to right (a braced list evaluates in order), so nodes get their
// classes in the order a recursive build of the same tree would give them.

EClassId addNode(EGraph &G, OpKind K, std::initializer_list<EClassId> Kids) {
  return G.add(ENode(Op(K), Kids));
}

EClassId addInt(EGraph &G, int64_t Value) {
  return G.add(ENode(Op::makeInt(Value), {}));
}

EClassId addVar(EGraph &G, Symbol Name) {
  return G.add(ENode(Op::makeVar(Name), {}));
}

/// A numeric literal: Int when integral, Float otherwise.
EClassId addLiteral(EGraph &G, double Value) {
  if (isIntegral(Value))
    return addInt(G, static_cast<int64_t>(Value));
  return G.add(ENode(Op::makeFloat(Value), {}));
}

/// `Base + C`, eliding zero and folding a negative constant into a Sub.
EClassId addConstant(EGraph &G, EClassId Base, double C) {
  if (C == 0.0)
    return Base;
  return addNode(G, C < 0.0 ? OpKind::Sub : OpKind::Add,
                 {Base, addLiteral(G, std::fabs(C))});
}

/// `Coeff * X` with the usual simplifications (1 -> X, -1 -> 0 - X), using
/// an Int literal when \p Coeff is integral. \p AddX adds X after the
/// coefficient's literal.
template <typename AddFn>
EClassId addScaled(EGraph &G, double Coeff, AddFn AddX) {
  if (Coeff == 1.0)
    return AddX();
  if (Coeff == -1.0)
    return addNode(G, OpKind::Sub, {addInt(G, 0), AddX()});
  return addNode(G, OpKind::Mul, {addLiteral(G, Coeff), AddX()});
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

EClassId shrinkray::addClosedForm(EGraph &G, const ClosedForm &F,
                                 EClassId Index, int64_t RotationPeriod) {
  auto index = [Index] { return Index; };
  switch (F.Kind) {
  case FormKind::Constant:
    return addLiteral(G, F.C);
  case FormKind::Poly1: {
    if (F.B == 0.0)
      return addLiteral(G, F.C);
    if (RotationPeriod == 0)
      return addConstant(G, addScaled(G, F.B, index), F.C);
    // Rotation heuristic: slope B == 360/RotationPeriod. Render the
    // periodic structure explicitly, folding a phase equal to one step
    // into the index (the paper's `360 * (i+1) / b` form).
    const bool OneStep = std::fabs(F.C - F.B) < 1e-9; // y = B*(i+1)
    EClassId Turns = addNode(
        G, OpKind::Mul,
        {addInt(G, 360),
         OneStep ? addNode(G, OpKind::Add, {Index, addInt(G, 1)}) : Index});
    EClassId Core =
        addNode(G, OpKind::Div, {Turns, addInt(G, RotationPeriod)});
    return addConstant(G, Core, OneStep ? 0.0 : F.C);
  }
  case FormKind::Poly2: {
    EClassId Poly = addScaled(G, F.A, [&] {
      return addNode(G, OpKind::Mul, {Index, Index});
    });
    if (F.B != 0.0)
      Poly = addNode(G, OpKind::Add, {Poly, addScaled(G, F.B, index)});
    return addConstant(G, Poly, F.C);
  }
  case FormKind::Trig: {
    auto addSine = [&] {
      return addNode(G, OpKind::Sin,
                     {addConstant(G, addScaled(G, F.B, index), F.C)});
    };
    EClassId Wave =
        F.A == 1.0 ? addSine()
                   : addNode(G, OpKind::Mul, {addLiteral(G, F.A), addSine()});
    return addConstant(G, Wave, F.D);
  }
  }
  assert(false && "unknown form kind");
  return Index;
}

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

  const LoopVars &Vars = loopVars();
  for (bool PreferTrig : {false, true}) {
    // Skip the trig variant when it selects exactly the same forms.
    std::vector<std::array<const ClosedForm *, 3>> Picked(D.numLayers());
    bool Differs = false;
    for (size_t L = 0; L < D.numLayers(); ++L)
      for (int C = 0; C < 3; ++C) {
        Picked[L][C] = pick(Layers[L].Comp[C], PreferTrig);
        Differs |= Picked[L][C] != &Layers[L].Comp[C].front();
      }
    if (PreferTrig && !Differs)
      continue;

    // Mapi (Fun (i, c) -> T_0(f_0(i), c)) (... Repeat(base, N)), one Mapi
    // per layer, outermost first; Rotate layers use the rotation form.
    const EClassId I = addVar(G, Vars.Index[0]), C = addVar(G, Vars.C);
    std::vector<EClassId> Funs(D.numLayers());
    for (size_t L = 0; L < D.numLayers(); ++L) {
      const bool Rotate = D.LayerKinds[L] == OpKind::Rotate;
      auto addComp = [&](int Comp) {
        const ClosedForm &F = *Picked[L][Comp];
        return addClosedForm(G, F, I, Rotate ? rotationPeriod(F) : 0);
      };
      EClassId Vec =
          addNode(G, OpKind::Vec3Ctor, {addComp(0), addComp(1), addComp(2)});
      Funs[L] =
          addNode(G, OpKind::Fun, {I, C, addNode(G, D.LayerKinds[L], {Vec, C})});
    }
    EClassId NewList = addNode(
        G, OpKind::Repeat, {D.Base, addInt(G, static_cast<int64_t>(N))});
    InferenceRecord Rec;
    Rec.K = InferenceRecord::Kind::Mapi;
    Rec.Bounds = {static_cast<int64_t>(N)};
    for (size_t L = D.numLayers(); L-- > 0;) {
      recordForms(Picked[L], Rec);
      NewList = addNode(G, OpKind::Mapi, {Funs[L], NewList});
    }
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

/// Adds c + sum_k a_k * Idx[k] from [c, a_1, ..., a_M], eliding zero
/// terms.
EClassId addLinear(EGraph &G, const std::vector<double> &Coef,
                   const std::vector<EClassId> &Idx) {
  std::optional<EClassId> Acc;
  for (size_t K = 0; K < Idx.size(); ++K) {
    if (Coef[K + 1] == 0.0)
      continue;
    EClassId Piece = addScaled(G, Coef[K + 1], [&] { return Idx[K]; });
    Acc = Acc ? addNode(G, OpKind::Add, {*Acc, Piece}) : Piece;
  }
  if (!Acc)
    return addLiteral(G, Coef[0]);
  return addConstant(G, *Acc, Coef[0]);
}

/// Adds the index list [0, 1, ..., N-1] as a Cons spine.
EClassId addIndexList(EGraph &G, int64_t N) {
  std::vector<EClassId> Ints(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Ints[I] = addInt(G, I);
  EClassId List = addNode(G, OpKind::Nil, {});
  for (int64_t I = N; I > 0; --I)
    List = addNode(G, OpKind::Cons, {Ints[I - 1], List});
  return List;
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

  const LoopVars &Vars = loopVars();
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

      // Add: Fold (Fun i -> ... Fold (Fun k -> T(expr, child), Nil, idx)
      //      ..., Nil, idx) — a list-producing flat-map nest.
      std::vector<EClassId> Idx(M);
      for (int Level = 0; Level < M; ++Level)
        Idx[Level] = addVar(G, Vars.Index[Level]);
      EClassId Vec = addNode(G, OpKind::Vec3Ctor,
                             {addLinear(G, Coef[0], Idx),
                              addLinear(G, Coef[1], Idx),
                              addLinear(G, Coef[2], Idx)});
      EClassId NewList = addNode(G, D.LayerKinds[0], {Vec, *Child});
      for (int Level = M; Level > 0; --Level) {
        EClassId Fun = addNode(G, OpKind::Fun, {Idx[Level - 1], NewList});
        NewList = addNode(G, OpKind::Fold,
                          {Fun, addNode(G, OpKind::Nil, {}),
                           addIndexList(G, Factors[Level - 1])});
      }
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

  // Per group: closed forms for y and z over the in-group index, all
  // solved before anything is added (a group without one adds nothing).
  std::vector<std::pair<ClosedForm, ClosedForm>> Forms;
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
    Forms.emplace_back(*FormY, *FormZ);
  }

  // A lone element is Cons(T(v, child), Nil), referencing the shared child
  // class directly; a run is Mapi (Fun (i, c) -> T(v(i), c)) over
  // Repeat(child, size), where the transformed solid is the parameter c.
  const LoopVars &Vars = loopVars();
  std::vector<EClassId> GroupLists;
  for (size_t K = 0; K < Groups.size(); ++K) {
    const size_t Size = Groups[K].End - Groups[K].Begin;
    const EClassId I = addVar(G, Vars.Index[0]);
    const EClassId Solid = Size == 1 ? *Child : addVar(G, Vars.C);
    EClassId Vec = addNode(G, OpKind::Vec3Ctor,
                           {addLiteral(G, Groups[K].X),
                            addClosedForm(G, Forms[K].first, I),
                            addClosedForm(G, Forms[K].second, I)});
    EClassId Elem = addNode(G, D.LayerKinds[0], {Vec, Solid});
    if (Size == 1)
      GroupLists.push_back(
          addNode(G, OpKind::Cons, {Elem, addNode(G, OpKind::Nil, {})}));
    else
      GroupLists.push_back(addNode(
          G, OpKind::Mapi,
          {addNode(G, OpKind::Fun, {I, Solid, Elem}),
           addNode(G, OpKind::Repeat,
                   {*Child, addInt(G, static_cast<int64_t>(Size))})}));
  }

  // Concat the per-group lists: the "fold over the folds" of Sec. 5.
  EClassId NewList = GroupLists.back();
  for (size_t K = GroupLists.size() - 1; K > 0; --K)
    NewList = addNode(G, OpKind::Concat, {GroupLists[K - 1], NewList});
  G.merge(ListClass, NewList);
  Rec.Description =
      "irregular grouping into " + std::to_string(Groups.size()) + " runs";
  Records.push_back(std::move(Rec));
  return Records;
}
