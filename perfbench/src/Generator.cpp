//===-- perfbench/src/Generator.cpp - Seeded benchmark inputs -------------===//

#include "Generator.h"

#include "cad/Sexp.h"
#include "models/Models.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

using namespace perfbench;
using namespace shrinkray;

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Repeats and near-misses pick their original among this many most recent
/// eligible cold requests.
constexpr size_t kRecent = 16;

template <typename T> T pick(Rng &R, std::initializer_list<T> Options) {
  return Options.begin()[R.nextBelow(Options.size())];
}

/// A scaled primitive: the element every family repeats.
TermPtr element(Rng &R) {
  TermPtr Prim = pick<TermPtr>(R, {tUnit(), tCylinder(), tSphere(),
                                   tHexagon()});
  double S = pick(R, {1.0, 2.0, 3.0});
  return tScale(S, S, pick(R, {1.0, 2.0, 4.0}), Prim);
}

/// Three in four models are the pattern cut out of a base plate (two kinds
/// of primitive and a Diff), the others the bare pattern: 9 of Table 1's 12
/// structured models other than the gear are a Diff from a base.
TermPtr inContext(Rng &R, TermPtr Pattern) {
  if (R.nextBelow(4) == 0)
    return Pattern;
  TermPtr Plate = tTranslate(-30, -30, -2, tScale(60, 60, 2, tUnit()));
  return tDiff(Plate, Pattern);
}

double origin(Rng &R) { return static_cast<double>(R.nextBelow(41)) - 20.0; }

TermPtr row(Rng &R, int N) {
  double Ox = origin(R), Oy = origin(R), Oz = origin(R);
  double D = pick(R, {2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0});
  double E = pick(R, {0.0, 0.0, 1.0, 2.0});
  TermPtr Elem = element(R);
  std::vector<TermPtr> Items;
  for (int I = 0; I < N; ++I)
    Items.push_back(tTranslate(Ox + D * I, Oy + E * I, Oz, Elem));
  return inContext(R, tUnionAll(Items));
}

TermPtr grid(Rng &R, int Nx, int Ny) {
  double Ox = origin(R), Oy = origin(R), Oz = origin(R);
  double Dx = pick(R, {3.0, 4.0, 5.0, 8.0});
  double Dy = pick(R, {3.0, 4.5, 6.0, 10.0});
  TermPtr Elem = element(R);
  std::vector<TermPtr> Items;
  for (int I = 0; I < Nx; ++I)
    for (int J = 0; J < Ny; ++J)
      Items.push_back(tTranslate(Ox + Dx * I, Oy + Dy * J, Oz, Elem));
  return inContext(R, tUnionAll(Items));
}

TermPtr ring(Rng &R, int N) {
  double Cx = origin(R), Cy = origin(R), Cz = origin(R);
  double Radius = pick(R, {10.0, 15.0, 20.0, 25.0});
  TermPtr Elem = element(R);
  std::vector<TermPtr> Items;
  for (int I = 0; I < N; ++I) {
    double Theta = 2.0 * kPi * I / N;
    Items.push_back(tTranslate(Cx + Radius * std::cos(Theta),
                               Cy + Radius * std::sin(Theta), Cz, Elem));
  }
  return inContext(R, tUnionAll(Items));
}

struct Allotment {
  Family Fam;
  unsigned PerHundred;
};

/// Table 1's 13 structured models by loop form: 7 rows, 4 grids, 1 ring
/// (hc-bits), 1 gear.
constexpr Allotment kShares[] = {{Family::Row, 53},
                                 {Family::Grid, 31},
                                 {Family::Ring, 8},
                                 {Family::Gear, 8}};

/// The \p I-th of \p Count sizes spread evenly over [Lo, Hi].
int spread(size_t I, size_t Count, int Lo, int Hi) {
  return Lo + static_cast<int>(I * static_cast<size_t>(Hi - Lo + 1) / Count);
}

template <typename T> void shuffle(Rng &R, std::vector<T> &V) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

} // namespace

const char *perfbench::familyName(Family F) {
  switch (F) {
  case Family::Row:
    return "row";
  case Family::Grid:
    return "grid";
  case Family::Ring:
    return "ring";
  case Family::Gear:
    return "gear";
  }
  return "?";
}

const char *perfbench::className(ReqClass C) {
  switch (C) {
  case ReqClass::Cold:
    return "cold";
  case ReqClass::Repeat:
    return "repeat";
  case ReqClass::NearMiss:
    return "near-miss";
  }
  return "?";
}

std::vector<GenModel> perfbench::generateCorpus(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  std::vector<GenModel> Out;
  for (const Allotment &A : kShares) {
    // The row family, listed first, takes the rounding remainder.
    size_t N = Count * A.PerHundred / 100;
    if (A.Fam == Family::Row) {
      N = Count;
      for (const Allotment &Other : kShares)
        if (Other.Fam != Family::Row)
          N -= Count * Other.PerHundred / 100;
    }
    for (size_t I = 0; I < N; ++I) {
      GenModel M;
      M.Fam = A.Fam;
      TermPtr Flat;
      std::string Size;
      switch (A.Fam) {
      case Family::Row: {
        int K = spread(I, N, 2, 11);
        Flat = row(R, K);
        Size = std::to_string(K);
        break;
      }
      case Family::Grid: {
        int Cell = spread(I, N, 0, 8);
        int Nx = 2 + Cell / 3, Ny = 3 + Cell % 3;
        Flat = grid(R, Nx, Ny);
        Size = std::to_string(Nx) + "x" + std::to_string(Ny);
        break;
      }
      case Family::Ring: {
        int K = spread(I, N, 4, 12);
        Flat = ring(R, K);
        Size = std::to_string(K);
        break;
      }
      case Family::Gear: {
        int Teeth = spread(I, N, 6, 20);
        // Sized and placed in an assembly, so gears with equal tooth counts
        // stay distinct models that differ in five literals.
        double S = 0.5 + static_cast<double>(R.nextBelow(100)) / 100.0;
        Flat = tTranslate(origin(R), origin(R), origin(R),
                          tScale(S, S, 1.0, models::gearModel(Teeth)));
        Size = std::to_string(Teeth);
        break;
      }
      }
      M.Noisy = A.Fam != Family::Gear && I % 4 == 3;
      if (M.Noisy)
        Flat = models::injectNoise(Flat, 1e-4, R.next());
      M.Flat = Flat;
      M.Source = printSexp(Flat);
      M.Name = std::string(familyName(A.Fam)) + "-" + Size +
               (M.Noisy ? "-noisy" : "");
      Out.push_back(std::move(M));
    }
  }
  shuffle(R, Out);
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I].Name = "g" + std::to_string(I) + ":" + Out[I].Name;
  return Out;
}

TermPtr perfbench::editLiteral(const TermPtr &Flat, size_t Index,
                               double Delta) {
  size_t Literals = 0;
  std::vector<const Term *> Stack{Flat.get()};
  while (!Stack.empty()) {
    const Term *T = Stack.back();
    Stack.pop_back();
    Literals += T->kind() == OpKind::Float;
    for (const TermPtr &Kid : T->children())
      Stack.push_back(Kid.get());
  }
  if (Literals == 0)
    return Flat;
  size_t Target = Index % Literals, Seen = 0;
  // Generated models are a few levels deep, so recursion is bounded.
  auto Rec = [&](auto &Self, const TermPtr &T) -> TermPtr {
    if (T->kind() == OpKind::Float)
      return Seen++ == Target ? tFloat(T->op().floatValue() + Delta) : T;
    std::vector<TermPtr> Kids;
    Kids.reserve(T->numChildren());
    for (const TermPtr &Kid : T->children())
      Kids.push_back(Self(Self, Kid));
    return makeTerm(T->op(), std::move(Kids));
  };
  return Rec(Rec, Flat);
}

std::vector<ServedRequest> perfbench::generateServedMix(uint64_t Seed,
                                                        size_t Count,
                                                        double Rate,
                                                        size_t MinGap) {
  // The class of request I: the first MinGap are cold, then every block of
  // ten follows one fixed pattern.
  static constexpr ReqClass kPattern[10] = {
      ReqClass::Cold,   ReqClass::Cold,     ReqClass::Repeat, ReqClass::Cold,
      ReqClass::NearMiss, ReqClass::Cold,   ReqClass::Cold,   ReqClass::Repeat,
      ReqClass::Cold,   ReqClass::NearMiss};
  std::vector<ReqClass> Classes(Count);
  size_t NumCold = 0;
  for (size_t I = 0; I < Count; ++I) {
    Classes[I] = I < MinGap ? ReqClass::Cold : kPattern[I % 10];
    NumCold += Classes[I] == ReqClass::Cold;
  }

  std::vector<GenModel> Models = generateCorpus(Seed, NumCold);
  Rng R(Seed ^ 0x5e4e3d2c1b0a9988ULL);
  std::vector<ServedRequest> Out(Count);
  std::vector<size_t> ColdIdx; // request index of each cold request
  size_t Eligible = 0; // cold requests at least MinGap earlier than I
  for (size_t I = 0; I < Count; ++I) {
    ServedRequest &Q = Out[I];
    Q.Class = Classes[I];
    Q.DueSec = static_cast<double>(I) / Rate;
    if (Q.Class == ReqClass::Cold) {
      const GenModel &M = Models[ColdIdx.size()];
      Q.Name = M.Name;
      Q.Source = M.Source;
      Q.Ref = I;
      ColdIdx.push_back(I);
      continue;
    }
    while (Eligible < ColdIdx.size() && ColdIdx[Eligible] + MinGap <= I)
      ++Eligible;
    // Users revisit what they sent recently: one of the last kRecent.
    size_t Window = std::min(Eligible, kRecent);
    size_t Which = Eligible - 1 - R.nextBelow(Window);
    const ServedRequest &Orig = Out[ColdIdx[Which]];
    Q.Ref = ColdIdx[Which];
    Q.Cost = Orig.Cost;
    if (Q.Class == ReqClass::Repeat) {
      Q.Name = Orig.Name + "+repeat";
      Q.Source = Orig.Source;
    } else if (R.nextBelow(2) == 0) {
      Q.Name = Orig.Name + "+cost";
      Q.Source = Orig.Source;
      Q.Cost = Orig.Cost == CostKind::AstSize ? CostKind::RewardLoops
                                              : CostKind::AstSize;
    } else {
      Q.Name = Orig.Name + "+edit";
      Q.Source = printSexp(editLiteral(Models[Which].Flat, R.next(), 0.5));
    }
  }
  return Out;
}

std::vector<ServedRequest> perfbench::revisitRequests(
    const std::vector<std::pair<std::string, TermPtr>> &Models, size_t Rounds,
    uint64_t Seed) {
  Rng R(Seed ^ 0x7e715175ULL);
  std::vector<ServedRequest> Out;
  for (const auto &[Name, Flat] : Models) {
    ServedRequest Cold;
    Cold.Name = Name;
    Cold.Source = printSexp(Flat);
    Cold.Ref = Out.size();
    Out.push_back(Cold);
    for (size_t Round = 0; Round < Rounds; ++Round) {
      ServedRequest Repeat = Cold;
      Repeat.Class = ReqClass::Repeat;
      Repeat.Name += "+repeat";
      // One cost swap; after it, edits (a second swap would be a repeat).
      ServedRequest Near = Cold;
      Near.Class = ReqClass::NearMiss;
      if (Round == 0) {
        Near.Name += "+cost";
        Near.Cost = CostKind::RewardLoops;
      } else {
        Near.Name += "+edit" + std::to_string(Round);
        Near.Source = printSexp(editLiteral(Flat, R.next(), 0.5));
      }
      Out.push_back(std::move(Repeat));
      Out.push_back(std::move(Near));
    }
  }
  return Out;
}

std::string
perfbench::requestListText(const std::vector<ServedRequest> &Requests) {
  std::string Out;
  char Head[96];
  for (size_t I = 0; I < Requests.size(); ++I) {
    const ServedRequest &Q = Requests[I];
    std::snprintf(Head, sizeof(Head), "%zu %s ref=%zu cost=%s due=%.6f ", I,
                  className(Q.Class), Q.Ref,
                  Q.Cost == CostKind::AstSize ? "size" : "loops", Q.DueSec);
    Out += Head;
    Out += Q.Name + " " + Q.Source + "\n";
  }
  return Out;
}
