//===-- perfbench/src/Generator.h - Seeded benchmark inputs -----*- C++ -*-===//
///
/// \file
/// Every input the benchmark sends is made here from a seed: the same seed
/// gives a byte-identical request list (requestListText), different seeds
/// give different lists. The program under test only ever sees the
/// generated model text or terms.
///
/// Generated models come in four families, allotted by fixed shares so
/// every seed runs the same mix (stratified by loop depth and form). The
/// shares are those of the 13 Table 1 models with loops (7 rows, 4 grids,
/// 1 ring, 1 gear):
///
///   family  share  loop depth  form   sizes
///   row      53%   1           d1     2..11 elements on a line
///   grid     31%   2           d1,d1  2..4 x 3..5 elements
///   ring      8%   1           theta  4..12 elements on a circle
///   gear      8%   1           d1     models::gearModel(6..20 teeth),
///                                       scaled and placed by the seed
///
/// Row and grid sizes span Table 1's (its 2 x 20 grid aside). Ring and gear
/// sizes are a choice: Table 1 has one of each, a ring of 4 and a gear of
/// 60 teeth, and a 60-tooth gear takes seconds. Within a family the sizes
/// are spread evenly over the range, so the seed moves the positions,
/// spacings, primitives and noise, not the amount of work. A quarter of the
/// row, grid and ring models carry models::injectNoise (magnitude 1e-4,
/// inside the solver's band), as a mesh decompiler would leave them; that
/// share is a choice too, as Table 1's inputs carry no noise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include "cad/Term.h"
#include "synth/Cost.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Family { Row, Grid, Ring, Gear };

const char *familyName(Family F);

/// One generated flat-CSG model.
struct GenModel {
  std::string Name;
  Family Fam = Family::Row;
  bool Noisy = false;
  shrinkray::TermPtr Flat; ///< the model as a flat-CSG term
  std::string Source;      ///< printSexp(Flat): what a client would send
};

/// \p Count models in a seeded order, family counts fixed by the shares
/// above.
std::vector<GenModel> generateCorpus(uint64_t Seed, size_t Count);

/// How a served request relates to the ones before it.
enum class ReqClass {
  Cold,     ///< a model the server has not seen
  Repeat,   ///< byte-identical to an earlier cold request
  NearMiss, ///< an earlier cold request with one numeric literal edited,
            ///< or with its cost swapped between size and loops
};

constexpr size_t kNumClasses = 3;

const char *className(ReqClass C);

/// One request of a served workload.
struct ServedRequest {
  std::string Name;
  std::string Source;
  shrinkray::CostKind Cost = shrinkray::CostKind::AstSize;
  ReqClass Class = ReqClass::Cold;
  size_t Ref = 0;     ///< index of the cold request a repeat/near-miss
                      ///< derives from; its own index for cold requests
  double DueSec = 0;  ///< offset from the start of the run it is due at
};

/// The served-mix request list: \p Count requests due at a fixed \p Rate
/// (requests per second). Every block of ten holds 6 cold requests, 2
/// repeats and 2 near-misses, half of them cost swaps and half edits.
/// Repeats and near-misses refer to one of the 16 most recent cold requests
/// at least \p MinGap requests earlier; the first MinGap requests are cold.
std::vector<ServedRequest> generateServedMix(uint64_t Seed, size_t Count,
                                             double Rate, size_t MinGap);

/// A closed-loop revisit of \p Models (name and flat term each): each model
/// is sent cold, then \p Rounds times repeated and sent as a near-miss (its
/// cost swapped in the first round, one literal edited in later ones).
/// Gives the in-process workloads their repeat and near-miss samples.
std::vector<ServedRequest> revisitRequests(
    const std::vector<std::pair<std::string, shrinkray::TermPtr>> &Models,
    size_t Rounds, uint64_t Seed);

/// Returns \p Flat with the \p Index-th Float literal (pre-order, modulo
/// the literal count) moved by \p Delta.
shrinkray::TermPtr editLiteral(const shrinkray::TermPtr &Flat, size_t Index,
                               double Delta);

/// Canonical text of a request list: one line per request. Two lists are
/// the same inputs iff their texts are byte-identical.
std::string requestListText(const std::vector<ServedRequest> &Requests);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
