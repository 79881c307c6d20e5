//===-- egraph/Runner.h - Equality saturation driver ------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives equality saturation: repeatedly matches every rewrite against the
/// e-graph and applies all matches, until the graph saturates (no rule can
/// change it) or a fuel limit is hit (paper Fig. 5: the `fuel` argument
/// bounding iterative search). A backoff scheduler keeps explosive rules
/// (e.g. associativity) from starving the rest.
///
/// Search runs against the compiled rule database (RuleSet): rules sharing
/// a left-hand-side root operator are matched by one shared-prefix trie
/// per candidate class, instead of one program per rule. Search is also
/// incremental after the first iteration: each rule records the graph
/// generation of its last applied search, and subsequent searches scan
/// only the classes the e-graph reports dirty since then (touched classes
/// plus their ancestor closure — see EGraph::takeDirtySince), intersected
/// with the head kind of the rule's root. Within those classes the
/// search skips root e-nodes whose matches it already found (RuleSet::
/// RootFilter): an incremental search finds only matches that are new or
/// changed since its cursor. When the dirty closure covers most of the
/// graph the Runner falls back to a plain indexed search, which costs the
/// same and skips the set bookkeeping. Saturation cost is therefore
/// proportional to change, not graph size.
///
/// Because phase 1 only reads the graph (one generation stamp covers every
/// search), the root-op groups can be searched concurrently: with
/// NumThreads > 1 a small fixed thread pool shards the groups, each worker
/// writing its own rules' match buffers, and the results are consumed in
/// stable rule order — so parallel runs are bit-identical to serial ones.
/// EGraph::prepareForConcurrentReads() is called first so the lazy indexes
/// (union-find path compression, op-index buckets) are quiescent.
///
/// Phase 2 (apply) is serial: matches merge in rule order and match order,
/// and congruence is restored by one rebuild at the end of the iteration.
/// It keeps an applied-match memo per rule: a (root, substitution)
/// pair that already merged is never re-instantiated, so re-found matches
/// (full and unfiltered searches, nodes re-searched over a changed child)
/// cost one hash probe instead of rebuilding their right-hand sides. The
/// memo also feeds the match-limit window — see RunnerLimits::MatchLimit.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_RUNNER_H
#define SHRINKRAY_EGRAPH_RUNNER_H

#include "egraph/RuleSet.h"
#include "support/Cancel.h"

#include <vector>

namespace shrinkray {

/// Fuel limits for a saturation run.
struct RunnerLimits {
  size_t IterLimit = 128;       ///< max saturation iterations (fold-intro
                                ///< adds a right Union spine's whole list
                                ///< in one step, so a chain's fuel does
                                ///< not grow with its length; lifting an
                                ///< affine over a Union still extends one
                                ///< element per iteration)
  size_t NodeLimit = 200000;    ///< stop when the graph exceeds this size
  double TimeLimitSec = 60.0;   ///< wall-clock budget
  /// Backoff threshold, enforced two ways: a single search that *finds*
  /// more than this many matches is discarded and the rule banned (search
  /// cost control; a full search counts every match, an incremental one
  /// only the new or changed ones), and a rule whose distinct merged matches
  /// accumulated across one incremental streak (between full searches)
  /// cross this limit is banned *at that moment, mid-apply* (growth-rate
  /// control — incremental searches shrink per-search counts, so without
  /// the windowed trigger explosive rules dodge their bans). The mid-apply
  /// trigger caps the streak near the limit even when a single iteration
  /// would merge many times it: the rule's remaining matches this
  /// iteration are discarded and its search cursor rolled back, so the
  /// discarded work is re-found when the ban expires (dirtiness is
  /// monotone) and saturation still converges to the identical graph.
  size_t MatchLimit = 20000;
  size_t BanLengthIters = 3;    ///< initial ban length when a rule overflows
  /// Worker threads for the search phase. 0 = auto (min(4, hardware
  /// concurrency)); 1 = serial. Any value produces bit-identical results.
  size_t NumThreads = 0;
  /// Cooperative cancellation (service jobs, deadlines). Checked at
  /// saturation-iteration boundaries — never mid-iteration, so a run that
  /// observes cancellation stops on a clean, rebuilt graph.
  /// Default-constructed tokens
  /// are inert (one null check per iteration). The explicit {} keeps
  /// designated-initializer users (RunnerLimits{.IterLimit = ...})
  /// clean under -Wmissing-field-initializers.
  CancelToken Cancel{};
};

/// Why a run stopped.
enum class StopReason { Saturated, IterLimit, NodeLimit, TimeLimit, Cancelled };

/// Per-iteration statistics.
struct IterationStats {
  size_t Applied = 0;   ///< matches that changed the graph
  size_t Matches = 0;   ///< matches found: all of them by full searches,
                        ///< only new or changed ones by incremental ones
  size_t Nodes = 0;     ///< e-nodes after the iteration
  size_t Classes = 0;   ///< e-classes after the iteration
  double Seconds = 0.0; ///< wall time of this iteration (search+apply+rebuild)
  double SearchSec = 0.0;  ///< phase 1: candidate prep + group searches
  double ApplySec = 0.0;   ///< phase 2: serial merges in rule/match order
  double RebuildSec = 0.0; ///< invariant restoration + log compaction
};

/// Per-rule statistics accumulated across the whole run, so regressions in
/// a single rule's search or apply cost are visible in bench JSON.
struct RuleStats {
  std::string Name;
  /// Search time attributed to this rule. Group searches are shared work:
  /// each group's wall time is split evenly across the member rules active
  /// in that search (exact per-rule attribution does not exist once the
  /// Bind spine is shared).
  double SearchSec = 0.0;
  double ApplySec = 0.0;          ///< total time applying its matches
  size_t Matches = 0;             ///< matches found (incremental searches
                                  ///< find only new or changed ones)
  size_t Applied = 0;             ///< matches that changed the graph
  size_t FullSearches = 0;        ///< searches over all indexed candidates
  size_t IncrementalSearches = 0; ///< searches restricted to dirty classes
  size_t Bans = 0;                ///< backoff bans (either trigger)
};

/// Result of a saturation run.
struct RunnerReport {
  StopReason Stop = StopReason::Saturated;
  std::vector<IterationStats> Iterations;
  std::vector<RuleStats> Rules;
  double Seconds = 0.0;
  // Phase totals across all iterations (documented in docs/BENCHMARKS.md;
  // bench rows surface them as rewrite_search_sec etc.).
  double SearchSec = 0.0;
  double ApplySec = 0.0;
  double RebuildSec = 0.0;

  size_t numIterations() const { return Iterations.size(); }
};

/// Equality-saturation driver with backoff scheduling.
class Runner {
public:
  explicit Runner(RunnerLimits Limits = {}) : Limits(Limits) {}

  /// Runs the compiled database \p Rules on \p G to saturation or until
  /// fuel runs out.
  RunnerReport run(EGraph &G, const RuleSet &Rules) const;

  /// Convenience overload: compiles \p Rules for this run. Callers running
  /// many saturation rounds over one database (the Synthesizer main loop)
  /// should compile a RuleSet once and use the overload above.
  RunnerReport run(EGraph &G, const std::vector<Rewrite> &Rules) const;

private:
  RunnerLimits Limits;
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_RUNNER_H
