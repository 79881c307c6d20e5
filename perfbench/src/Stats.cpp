//===-- perfbench/src/Stats.cpp - Percentiles the sample supports ---------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

namespace {

/// 1-based nearest rank of the \p P-th percentile among \p N samples.
size_t nearestRank(double P, size_t N) {
  double R = std::ceil(P * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(R), 1, N);
}

Percentile at(std::vector<double> &Samples, size_t Rank) {
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return {Samples[Rank - 1],
          static_cast<double>(Rank) / static_cast<double>(Samples.size()),
          Samples.size()};
}

} // namespace

std::optional<Percentile> perfbench::percentile(std::vector<double> Samples,
                                                double P) {
  if (Samples.empty())
    return std::nullopt;
  size_t Rank = nearestRank(P, Samples.size());
  if (Samples.size() - Rank < kMinBeyond)
    return std::nullopt;
  Percentile Out = at(Samples, Rank);
  Out.P = P;
  return Out;
}

std::optional<Percentile>
perfbench::tailPercentile(std::vector<double> Samples, double P) {
  if (std::optional<Percentile> Exact = percentile(Samples, P))
    return Exact;
  // Capping never reports less than the median.
  if (Samples.size() < 2 * kMinBeyond)
    return std::nullopt;
  return at(Samples, Samples.size() - kMinBeyond);
}
