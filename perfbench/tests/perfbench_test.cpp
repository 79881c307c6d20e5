//===-- perfbench/tests/perfbench_test.cpp - Harness self-tests -----------===//
//
// Checks the benchmark's own rules: the percentile rule (a percentile is
// reported only with ten samples beyond it) and the input generator (the
// same seed gives a byte-identical request list, different seeds differ,
// and repeats and near-misses only refer to earlier requests). Exits 0
// when every check holds.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"
#include "Stats.h"

#include "cad/Sexp.h"
#include "models/Models.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // descending: the rule must sort
    V.push_back(static_cast<double>(I));
  return V;
}

void percentileRule() {
  // p95 needs 200 samples (rank 190, ten beyond); 199 is one short.
  check(percentile(oneTo(199), 0.95) == std::nullopt, "p95 of 199 refused");
  std::optional<Percentile> P95 = percentile(oneTo(200), 0.95);
  check(P95 && P95->Value == 190.0 && P95->N == 200, "p95 of 200 is rank 190");
  // p50 needs 20 samples.
  check(percentile(oneTo(19), 0.50) == std::nullopt, "p50 of 19 refused");
  std::optional<Percentile> P50 = percentile(oneTo(20), 0.50);
  check(P50 && P50->Value == 10.0, "p50 of 20 is rank 10");
  check(percentile({}, 0.5) == std::nullopt, "empty sample refused");
  // The capped form falls back to the highest supported percentile.
  std::optional<Percentile> Capped = tailPercentile(oneTo(64), 0.95);
  check(Capped && Capped->Value == 54.0 && Capped->P < 0.95,
        "p95 of 64 capped at rank 54");
  check(tailPercentile(oneTo(19), 0.95) == std::nullopt,
        "capping never reports less than the median");
  std::optional<Percentile> Twenty = tailPercentile(oneTo(20), 0.95);
  check(Twenty && Twenty->Value == 10.0, "p95 of 20 capped at the median");
  std::optional<Percentile> Exact = tailPercentile(oneTo(1000), 0.95);
  check(Exact && Exact->P == 0.95 && Exact->Value == 950.0,
        "p95 of 1000 is exact");
}

void generator() {
  using namespace shrinkray;
  std::string A = requestListText(generateServedMix(7, 300, 50.0, 25));
  std::string B = requestListText(generateServedMix(7, 300, 50.0, 25));
  std::string C = requestListText(generateServedMix(8, 300, 50.0, 25));
  check(A == B, "same seed gives a byte-identical request list");
  check(A != C, "different seeds give different lists");

  std::vector<ServedRequest> Mix = generateServedMix(11, 500, 50.0, 25);
  size_t Counts[kNumClasses] = {0, 0, 0};
  for (size_t I = 0; I < Mix.size(); ++I) {
    const ServedRequest &Q = Mix[I];
    ++Counts[static_cast<size_t>(Q.Class)];
    if (Q.Class == ReqClass::Cold) {
      check(Q.Ref == I, "a cold request refers to itself");
      continue;
    }
    check(Q.Ref + 25 <= I, "a derived request refers to one sent earlier");
    check(Mix[Q.Ref].Class == ReqClass::Cold, "derived from a cold request");
    if (Q.Class == ReqClass::Repeat)
      check(Q.Source == Mix[Q.Ref].Source && Q.Cost == Mix[Q.Ref].Cost,
            "a repeat is byte-identical");
    else
      check(Q.Source != Mix[Q.Ref].Source || Q.Cost != Mix[Q.Ref].Cost,
            "a near-miss differs");
  }
  check(Counts[0] > 0.55 * 500 && Counts[0] < 0.65 * 500, "~60% cold");
  check(Counts[1] > 0 && Counts[2] > 0, "repeats and near-misses present");

  // The corpus keeps its family shares and its inputs are flat CSG that
  // round-trip through the parser.
  std::vector<GenModel> Corpus = generateCorpus(3, 100);
  size_t PerFamily[4] = {0, 0, 0, 0};
  for (const GenModel &M : Corpus) {
    ++PerFamily[static_cast<size_t>(M.Fam)];
    ParseResult P = parseSexp(M.Source);
    check(P && P.Value == M.Flat && isFlatCsg(M.Flat),
          "a generated model is flat and round-trips");
  }
  check(PerFamily[0] == 53 && PerFamily[1] == 31 && PerFamily[2] == 8 &&
            PerFamily[3] == 8,
        "family shares 53/31/8/8");
}

} // namespace

int main() {
  percentileRule();
  generator();
  std::printf("%s (%d failures)\n", Failures ? "FAILED" : "ok", Failures);
  return Failures ? 1 : 0;
}
