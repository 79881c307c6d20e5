//===-- perfbench/src/Stats.h - Percentiles the sample supports -*- C++ -*-===//
///
/// \file
/// The benchmark's percentile rule: a percentile is reported only when at
/// least kMinBeyond samples lie beyond it, so a tail figure never rests on
/// one or two jobs. Percentiles are nearest-rank: the p-th percentile of n
/// sorted samples is the one at 1-based rank ceil(p * n).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
constexpr size_t kMinBeyond = 10;

/// A reported percentile: its value, the percentile actually reported (in
/// (0, 1]) and the sample count it came from.
struct Percentile {
  double Value = 0.0;
  double P = 0.0;
  size_t N = 0;
};

/// The \p P-th percentile (0 < P < 1) of \p Samples, or nothing when fewer
/// than kMinBeyond samples lie beyond it.
std::optional<Percentile> percentile(std::vector<double> Samples, double P);

/// The \p P-th percentile when the sample supports it; otherwise the
/// highest percentile that has kMinBeyond samples beyond it (Percentile::P
/// says which), as long as that is at least the median. Nothing when there
/// are fewer than 2 * kMinBeyond samples.
std::optional<Percentile> tailPercentile(std::vector<double> Samples,
                                         double P);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
