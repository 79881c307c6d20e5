//===-- synth/Synthesizer.cpp - The ShrinkRay pipeline --------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the end-to-end pipeline (paper Figure 5) and the
/// loop-shape reporting behind Table 1's n-l/f columns. The main loop
/// owns one incremental KBestExtractor across iterations and attributes
/// wall clock to the rewrite/solve/extract phases (SynthesisStats).
///
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "rewrites/Rules.h"
#include "solvers/Preprocess.h"

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>

using namespace shrinkray;

const CostFn &shrinkray::costFn(CostKind Kind) {
  static const AstSizeCost Size;
  static const RewardLoopsCost Loops;
  return Kind == CostKind::AstSize ? static_cast<const CostFn &>(Size)
                                   : static_cast<const CostFn &>(Loops);
}

size_t SynthesisResult::structureRank() const {
  // "Structure" means a real counted loop (Mapi over a Repeat, or a Fold
  // over an index list) — a bare Fold over an explicit Cons spine is just
  // a respelling of the flat model.
  for (size_t I = 0; I < Programs.size(); ++I)
    if (describeLoops(Programs[I].T).HasLoops)
      return I + 1;
  return 0;
}

SynthesisResult Synthesizer::synthesize(const TermPtr &FlatCsg) const {
  bool Aborted = false;
  return synthesizeImpl(FlatCsg, nullptr, Aborted);
}

SynthesisResult Synthesizer::synthesizeWarm(const TermPtr &FlatCsg,
                                            const WarmStart &W) const {
  bool Aborted = false;
  SynthesisResult Warm = synthesizeImpl(FlatCsg, &W, Aborted);
  if (!Aborted)
    return Warm;
  // The warm attempt failed validation (or an edit resume did not close);
  // the cold pipeline is always available and always right.
  SynthesisResult Cold = synthesizeImpl(FlatCsg, nullptr, Aborted);
  Cold.Stats.WarmStartAborted = true;
  return Cold;
}

SynthesisResult Synthesizer::synthesizeImpl(const TermPtr &FlatCsg,
                                            const WarmStart *W,
                                            bool &Aborted) const {
  assert(isFlatCsg(FlatCsg) && "synthesizer input must be flat CSG");
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();

  SynthesisResult Result;

  // Solver-pipeline stage 0 begins at the input: duplicate Union operands
  // are dropped before the e-graph ever sees them (union is idempotent).
  // Duplicate elements are the recorded saturation pathology — `union-idem`
  // merges Union(x, x) into x's own class and the fold-list rules then grow
  // list classes without bound — so canonicalizing here turns a multi-GB
  // blowup into a no-op. Duplicate-free inputs pass through untouched
  // (pointer-identical), keeping their runs byte-for-byte unchanged.
  const TermPtr Input = dedupeUnionOperands(FlatCsg);
  if (Input != FlatCsg)
    Result.Stats.DedupedPrimitives =
        termPrimitives(FlatCsg) - termPrimitives(Input);

  EGraph G;

  const std::vector<Rewrite> Rules = pipelineRules();
  // One compiled database for every saturation round: the shared-prefix
  // tries are a pure function of the rules, so recompiling per round
  // would only burn time.
  const RuleSet CompiledRules(Rules);

  // The extraction engine lives across main-loop iterations: the first
  // round derives costs for the whole graph, every later round refreshes
  // incrementally from the generation-stamped dirty log, so re-extraction
  // costs time proportional to what the round changed. A warm start may
  // hand the engine back fully derived (restored below).
  std::unique_ptr<KBestExtractor> Extraction;

  // --- Warm-start restore ------------------------------------------------
  // Bring the captured pipeline state back up *before* seeding the input:
  // the engine restore validates its generation against the graph's, and
  // its dirty-log lease must be registered before any further mutation so
  // refresh() later sees the re-seeding delta. Every validation failure
  // aborts to the cold pipeline (synthesizeWarm retries with W == null).
  RunnerCursors Cursors;
  const bool WarmEdited = W && !W->SameInput;
  if (W) {
    const auto RestoreStart = Clock::now();
    Result.Stats.WarmStart = true;
    Result.Stats.WarmStartEdit = WarmEdited;
    // The capture point is specific to single-round pipelines; the service
    // never offers snapshots to multi-round requests, but validate anyway.
    if (Opts.MainLoopIters != 1) {
      Aborted = true;
      return Result;
    }
    std::istringstream GraphBytes(W->Graph);
    if (!G.deserialize(GraphBytes).empty() ||
        !deserializeRunnerCursors(W->Cursors, Cursors).empty()) {
      Aborted = true;
      return Result;
    }
    // The cursors must continue *this* graph under *this* rule database,
    // the captured run must have stopped deterministically, and the
    // request must not ask for less fuel than the capture consumed (the
    // cold run would then have stopped earlier — unreproducible).
    if (Cursors.Rules.size() != CompiledRules.numRules() ||
        Cursors.Generation != G.generation() ||
        Cursors.Stop == StopReason::TimeLimit ||
        Cursors.Stop == StopReason::Cancelled ||
        Opts.Limits.IterLimit < Cursors.IterationsDone ||
        // An edit re-seeds new nodes into the graph. A *saturated* capture
        // closes over them by resuming (provably cold-identical: the
        // resumed run replays the mutations cold would perform past the
        // fixpoint). An *iteration-limited* capture is accepted only with
        // fuel to spare — the resume spends it closing over the edit, and
        // the post-resume quiescence check below aborts unless the graph
        // demonstrably stopped changing inside the budget. A node-limited
        // capture never qualifies: cold would stop at the same node count
        // but along a different mutation prefix.
        (WarmEdited && Cursors.Stop != StopReason::Saturated &&
         !(Cursors.Stop == StopReason::IterLimit &&
           Opts.Limits.IterLimit > Cursors.IterationsDone))) {
      Aborted = true;
      return Result;
    }
    if (W->ExtractUsable) {
      // A failed engine restore is not fatal: the engine is re-derived
      // from the restored graph at the usual point (refresh-equals-scratch
      // makes the result identical, the derivation just costs more).
      std::string Err;
      Extraction =
          KBestExtractor::restore(G, costFn(Opts.Cost), Opts.TopK,
                                  W->Extract, Err);
    }
    Result.Stats.WarmSkippedIters = Cursors.IterationsDone;
    Result.Stats.WarmRestoreSeconds =
        std::chrono::duration<double>(Clock::now() - RestoreStart).count();
  }

  EClassId Root = G.addTerm(Input);
  G.rebuild();

  // Whether re-seeding the input actually changed the restored graph. A
  // same-input re-seed replays hash-cons hits end to end (no new nodes, no
  // merges), so any change contradicts the caller's input-hash match.
  const bool WarmChanged = W && G.generation() != Cursors.Generation;
  if (W && !WarmEdited && WarmChanged) {
    Aborted = true;
    return Result;
  }
  // Resume saturation only when there is something left to do: an edit
  // whose new nodes un-saturated the graph, or a deeper-fuel request on a
  // capture that stopped on the iteration limit. (A saturated same-input
  // capture stays saturated; a node-limit capture stops again immediately
  // in a cold run, so resuming would overshoot it.)
  const bool WarmResume =
      W && (WarmChanged || (Cursors.Stop == StopReason::IterLimit &&
                            Opts.Limits.IterLimit > Cursors.IterationsDone));
  // The job's cancellation token is shared with the solver pipeline so a
  // deadline firing mid-solve stops fitting work between stages and inside
  // the trig frequency scan (previously the one uncancellable span).
  SolverOptions SolverOpts = Opts.Solver;
  SolverOpts.Cancel = Opts.Limits.Cancel;
  const FunctionSolver Solver(SolverOpts);
  const Pattern FoldPattern = Pattern::parse("(Fold Union Empty ?l)");
  const Symbol ListVar("l");

  // Cooperative cancellation: the job's token rides in on the runner
  // limits and is checked between phases and between fold sites. Once it
  // fires, remaining work is skipped and extraction returns whatever the
  // graph holds — a partial but well-formed result (Stats.Cancelled).
  auto cancelled = [&] {
    if (!Opts.Limits.Cancel.cancelled())
      return false;
    Result.Stats.Cancelled = true;
    return true;
  };

  // Builds the engine on first use and refreshes it after that; refresh
  // equals a rebuild from scratch, so where the sync happens changes only
  // how much work it does, never the programs.
  auto syncExtraction = [&] {
    const auto ExtractStart = Clock::now();
    if (!Extraction)
      Extraction =
          std::make_unique<KBestExtractor>(G, costFn(Opts.Cost), Opts.TopK);
    else
      Extraction->refresh();
    Result.Stats.ExtractSeconds +=
        std::chrono::duration<double>(Clock::now() - ExtractStart).count();
  };

  Runner SaturationRunner(Opts.Limits);
  for (unsigned Iter = 0; Iter < Opts.MainLoopIters && !cancelled(); ++Iter) {
    // --- Syntactic rewrites (Fig. 5 line 4) -----------------------------
    const auto RewriteStart = Clock::now();
    if (W && Iter == 0) {
      if (WarmResume) {
        Result.Stats.Rewriting =
            SaturationRunner.resume(G, CompiledRules, Cursors);
        Result.Stats.WarmResumedIters =
            Result.Stats.Rewriting.numIterations();
        // An edit resume must demonstrably close over the re-seeded
        // nodes: a saturation stop proves it outright; an iteration-limit
        // stop qualifies only when the final resumed iteration applied
        // nothing (a quiescent tail — the graph stopped changing with
        // fuel left on the wall, the fuel-bounded analogue of a fixpoint,
        // which is what non-saturating models like nintendo-slot reach
        // once their explosive rules are perpetually banned). Anything
        // else — fuel wall mid-closure, node limit — cannot be matched
        // against a cold run; hand the job back to the cold pipeline. A
        // cancellation is the one exception: partial results are partial
        // either way.
        const RunnerReport &Resumed = Result.Stats.Rewriting;
        const bool QuiescentTail =
            Resumed.Stop == StopReason::IterLimit &&
            !Resumed.Iterations.empty() &&
            Resumed.Iterations.back().Applied == 0;
        if (WarmEdited && Resumed.Stop != StopReason::Saturated &&
            Resumed.Stop != StopReason::Cancelled && !QuiescentTail) {
          Aborted = true;
          return Result;
        }
      } else {
        // The captured run already finished this round's saturation; its
        // stop reason stands in for the report.
        Result.Stats.Rewriting.Stop = Cursors.Stop;
      }
    } else {
      // Exporting cursors is pure bookkeeping (the run is unchanged); they
      // feed the pre-solve snapshot capture below.
      Result.Stats.Rewriting = SaturationRunner.run(G, CompiledRules, Cursors);
    }
    if (Result.Stats.Rewriting.Stop == StopReason::TimeLimit)
      Result.Stats.WallClockTruncated = true;
    Result.Stats.RewriteSeconds +=
        std::chrono::duration<double>(Clock::now() - RewriteStart).count();
    Result.Stats.RewriteSearchSeconds += Result.Stats.Rewriting.SearchSec;
    Result.Stats.RewriteApplySeconds += Result.Stats.Rewriting.ApplySec;
    Result.Stats.RewriteRebuildSeconds += Result.Stats.Rewriting.RebuildSec;
    if (cancelled())
      break;

    // --- Warm-start capture (pre-solve) ---------------------------------
    // The snapshot freezes the pipeline right here: saturated graph,
    // saturation cursors, derived extraction engine — all at one graph
    // generation. Post-solve state is *not* reusable (solver insertions
    // depend on the request), which is why capture precedes the solve.
    // Skipped when the round stopped non-deterministically, and when a
    // warm run didn't resume (its state equals the snapshot it restored).
    const bool Capture =
        Opts.CaptureSnapshot && Iter == 0 && Opts.MainLoopIters == 1 &&
        Result.Stats.Rewriting.Stop != StopReason::TimeLimit &&
        Result.Stats.Rewriting.Stop != StopReason::Cancelled &&
        !(W && !WarmResume);
    G.rebuild();
    if (Capture) {
      // Only the snapshot needs the engine before the solve; every other
      // round derives it once, after all fold sites are in.
      syncExtraction();
      std::ostringstream GraphBytes;
      G.serialize(GraphBytes);
      Result.Snapshot.Graph = std::move(GraphBytes).str();
      Result.Snapshot.Cursors = serializeRunnerCursors(Cursors);
      Result.Snapshot.Extract = Extraction->saveState();
      Result.Snapshot.Stop = Cursors.Stop;
      Result.Snapshot.IterationsDone = Cursors.IterationsDone;
      Result.Snapshot.Present = true;
    }

    // A warm-edit graph also holds the *captured* input's classes. Only
    // classes the edited root reaches can contribute to its programs, so
    // the fold-site scan below is restricted to them — solving an
    // unreachable site would insert nodes a cold run never would.
    std::vector<char> Reachable;
    if (WarmEdited) {
      Reachable.assign(G.numIds(), 0);
      std::vector<EClassId> Work{G.find(Root)};
      Reachable[Work.front()] = 1;
      while (!Work.empty()) {
        const EClassId Id = Work.back();
        Work.pop_back();
        for (ENodeId N : G.eclass(Id).Nodes)
          for (EClassId Kid : G.node(N).children()) {
            const EClassId C = G.find(Kid);
            if (!Reachable[C]) {
              Reachable[C] = 1;
              Work.push_back(C);
            }
          }
      }
    }

    const auto SolveStart = Clock::now();

    // --- Locate fold contexts -------------------------------------------
    // A fold class accumulates one Fold node per extension step, so it can
    // reference many list variants (length 2, 3, ..., n). Only the longest
    // spine is worth solving: the shorter ones are strict sub-lists whose
    // structure the full solution subsumes, while genuinely partial
    // repetition (e.g. Figure 16) lives in *different* fold classes.
    // search() seeds its candidates from the operator-head index, so this
    // scan is proportional to fold sites rather than graph size.
    std::map<EClassId, std::pair<EClassId, size_t>> BestPerFold;
    for (const auto &[FoldClass, S] : FoldPattern.search(G)) {
      if (WarmEdited && !Reachable[G.find(FoldClass)])
        continue;
      EClassId ListClass = G.find(S[ListVar]);
      std::optional<std::vector<EClassId>> Spine =
          spineElements(G, ListClass);
      if (!Spine)
        continue;
      auto [It, Inserted] = BestPerFold.emplace(
          G.find(FoldClass), std::make_pair(ListClass, Spine->size()));
      if (!Inserted && Spine->size() > It->second.second)
        It->second = {ListClass, Spine->size()};
    }
    std::vector<std::pair<EClassId, EClassId>> Sites; // (fold, list)
    std::set<EClassId> SeenLists;
    for (const auto &[FoldClass, Best] : BestPerFold) {
      if (Sites.size() >= Opts.MaxFoldSites)
        break;
      if (SeenLists.insert(Best.first).second)
        Sites.emplace_back(FoldClass, Best.first);
    }
    Result.Stats.FoldSites += Sites.size();

    // --- Determinize, sort, and solve each context (Fig. 5 lines 5-7) ---
    for (const auto &[FoldClass, ListClass] : Sites) {
      if (cancelled())
        break;
      std::vector<ChainDecomposition> Ds = determinize(G, ListClass);
      Result.Stats.Decompositions += Ds.size();
      for (const ChainDecomposition &D : Ds) {
        for (InferenceRecord &R : inferFunctions(G, ListClass, D, Solver))
          Result.Stats.Records.push_back(std::move(R));
        if (Opts.EnableLoopInference)
          for (InferenceRecord &R : inferLoops(G, ListClass, D, Solver))
            Result.Stats.Records.push_back(std::move(R));
      }

      if (!Ds.empty() && Opts.EnableListSorting) {
        if (std::optional<SortedList> Sorted =
                sortFoldList(G, FoldClass, Ds.front())) {
          G.rebuild();
          const ChainDecomposition &D = Sorted->Decomposition;
          for (InferenceRecord &R :
               inferFunctions(G, Sorted->ListClass, D, Solver))
            Result.Stats.Records.push_back(std::move(R));
          if (Opts.EnableLoopInference)
            for (InferenceRecord &R :
                 inferLoops(G, Sorted->ListClass, D, Solver))
              Result.Stats.Records.push_back(std::move(R));
          if (Opts.EnableIrregular)
            for (InferenceRecord &R :
                 inferIrregular(G, Sorted->ListClass, D, Solver))
              Result.Stats.Records.push_back(std::move(R));
        } else if (Opts.EnableIrregular) {
          // Already sorted: run the irregular search on the original.
          for (InferenceRecord &R :
               inferIrregular(G, ListClass, Ds.front(), Solver))
            Result.Stats.Records.push_back(std::move(R));
        }
      }
      G.rebuild();
    }
    Result.Stats.SolveSeconds +=
        std::chrono::duration<double>(Clock::now() - SolveStart).count();
    if (cancelled())
      break;

    // --- Top-k extraction (Fig. 5 lines 8-9), once per round -------------
    // One sync covers the whole round: saturation and every fold site's
    // insertions reach the engine through a single dirty-log walk.
    G.rebuild();
    syncExtraction();
  }
  G.rebuild();

  // No engine yet: MainLoopIters == 0, or a cancellation before the first
  // sync — extract the graph as-is. A run cancelled after a sync broke out
  // before its round's sync: re-sync so the candidate table keys on the
  // current canonical ids (a stale table can miss the root outright after
  // merges re-rooted its class) — this is what makes the partial-result
  // contract hold.
  if (!Extraction || Result.Stats.Cancelled)
    syncExtraction();
  const auto ExtractStart = Clock::now();
  Result.Programs = Extraction->extract(Root);
  Result.Stats.ExtractSeconds +=
      std::chrono::duration<double>(Clock::now() - ExtractStart).count();
  const SolveBreakdown &Solve = Solver.breakdown();
  Result.Stats.SolvePreprocessSeconds = Solve.PreprocessSec;
  Result.Stats.SolvePruneSeconds = Solve.PruneSec;
  Result.Stats.SolveFitSeconds = Solve.FitSec;
  Result.Stats.ENodes = G.numNodes();
  Result.Stats.EClasses = G.numClasses();
  if (Opts.KeepGraphDump)
    Result.GraphDump = G.dump();
  Result.Stats.Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  return Result;
}

//===----------------------------------------------------------------------===//
// Loop reporting (Table 1 columns)
//===----------------------------------------------------------------------===//

namespace {

struct LoopWalk {
  std::vector<std::string> Loops;
  bool SawTheta = false, SawD2 = false, SawD1 = false;

  /// Scans an arithmetic subterm for the closed-form class it realizes.
  void scanForms(const TermPtr &T) {
    switch (T->kind()) {
    case OpKind::Sin:
    case OpKind::Cos:
      SawTheta = true;
      break;
    case OpKind::Mul:
      // i * i (or expressions containing it) signal a quadratic.
      if (termEquals(T->child(0), T->child(1)) &&
          T->child(0)->kind() == OpKind::Var)
        SawD2 = true;
      break;
    case OpKind::Var:
      SawD1 = true;
      break;
    default:
      break;
    }
    for (const TermPtr &Kid : T->children())
      scanForms(Kid);
  }

  /// Spine length of a literal index list, or -1.
  static int64_t spineLength(const TermPtr &T) {
    int64_t N = 0;
    const Term *Cur = T.get();
    while (Cur->kind() == OpKind::Cons) {
      ++N;
      Cur = Cur->child(1).get();
    }
    return Cur->kind() == OpKind::Nil ? N : -1;
  }

  void walk(const TermPtr &T) {
    // Mapi tower over a Repeat: one loop; its bound is the Repeat count.
    if (T->kind() == OpKind::Mapi) {
      const Term *Cur = T.get();
      while (Cur->kind() == OpKind::Mapi) {
        scanForms(Cur->child(0));
        Cur = Cur->child(1).get();
      }
      if (Cur->kind() == OpKind::Repeat &&
          Cur->child(1)->kind() == OpKind::Int) {
        Loops.push_back("n1," +
                        std::to_string(Cur->child(1)->op().intValue()));
        walk(Cur->child(0)); // the repeated element
        return;
      }
      // Mapi over something else: fall through to generic recursion.
    }
    // Fold (Fun i -> ...) over an index list: a counted loop level; nested
    // flat-map folds merge into one n<m> entry.
    if (T->kind() == OpKind::Fold && T->child(0)->kind() == OpKind::Fun &&
        T->child(0)->numChildren() == 2) {
      std::vector<int64_t> Bounds;
      const Term *Cur = T.get();
      while (Cur->kind() == OpKind::Fold &&
             Cur->child(0)->kind() == OpKind::Fun &&
             Cur->child(0)->numChildren() == 2) {
        int64_t Len = spineLength(Cur->child(2));
        if (Len < 0)
          break;
        Bounds.push_back(Len);
        Cur = Cur->child(0)->child(1).get(); // the Fun body
      }
      if (!Bounds.empty()) {
        std::ostringstream Os;
        Os << "n" << Bounds.size();
        for (int64_t B : Bounds)
          Os << "," << B;
        Loops.push_back(Os.str());
        // Continue under the innermost body.
        scanForms(T->child(0)->child(1));
        return;
      }
    }
    for (const TermPtr &Kid : T->children())
      walk(Kid);
  }
};

} // namespace

LoopSummary shrinkray::describeLoops(const TermPtr &Program) {
  LoopWalk W;
  W.walk(Program);
  LoopSummary Out;
  Out.HasLoops = !W.Loops.empty();
  std::ostringstream Os;
  for (size_t I = 0; I < W.Loops.size(); ++I) {
    if (I)
      Os << "; ";
    Os << W.Loops[I];
  }
  Out.Notation = Os.str();
  std::ostringstream Fs;
  bool First = true;
  auto piece = [&](const char *Name) {
    if (!First)
      Fs << ",";
    Fs << Name;
    First = false;
  };
  if (W.SawD2)
    piece("d2");
  if (W.SawTheta)
    piece("theta");
  if ((W.SawD1 || Out.HasLoops) && !W.SawD2 && !W.SawTheta)
    piece("d1");
  Out.Forms = Fs.str();
  return Out;
}
