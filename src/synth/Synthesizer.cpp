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
  // costs time proportional to what the round changed.
  std::unique_ptr<KBestExtractor> Extraction;

  EClassId Root = G.addTerm(Input);
  G.rebuild();

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
    Result.Stats.Rewriting = SaturationRunner.run(G, CompiledRules);
    if (Result.Stats.Rewriting.Stop == StopReason::TimeLimit)
      Result.Stats.WallClockTruncated = true;
    Result.Stats.RewriteSeconds +=
        std::chrono::duration<double>(Clock::now() - RewriteStart).count();
    Result.Stats.RewriteSearchSeconds += Result.Stats.Rewriting.SearchSec;
    Result.Stats.RewriteApplySeconds += Result.Stats.Rewriting.ApplySec;
    Result.Stats.RewriteRebuildSeconds += Result.Stats.Rewriting.RebuildSec;
    if (cancelled())
      break;

    G.rebuild();
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
