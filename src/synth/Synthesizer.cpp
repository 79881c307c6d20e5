//===-- synth/Synthesizer.cpp - The ShrinkRay pipeline --------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the end-to-end pipeline (paper Figure 5) and the
/// loop-shape reporting behind Table 1's n-l/f columns. One round of
/// saturation and solving is followed by one top-k extraction; wall clock
/// is attributed to the rewrite/solve/extract phases (SynthesisStats).
///
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "rewrites/Rules.h"
#include "solvers/Preprocess.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

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

std::vector<FoldSite> shrinkray::locateFoldSites(const EGraph &G,
                                                 size_t MaxSites) {
  // Spine length per canonical list class, as spineElements counts it:
  // one more than the tail of the class's spineNode, 0 at Nil, nullopt for
  // a cycle or a class that is not a list. A walk enters each class it
  // reaches as nullopt, so meeting it again on the same walk reads as a
  // cycle. Each class is walked once: the list variants of a fold class
  // share their tails, and walking every spine again cost quadratic time.
  std::unordered_map<EClassId, std::optional<size_t>> Lengths;
  std::vector<EClassId> Walk;
  auto spineLength = [&](EClassId List) {
    Walk.clear();
    std::optional<size_t> Len;
    for (EClassId Cur = List;;) {
      auto [It, Inserted] = Lengths.try_emplace(Cur);
      if (!Inserted) {
        Len = It->second;
        break;
      }
      const ENode *N = spineNode(G, Cur);
      if (!N)
        break;
      if (N->kind() == OpKind::Nil) {
        Len = It->second = 0;
        break;
      }
      Walk.push_back(Cur);
      Cur = G.find(N->child(1));
    }
    for (size_t I = Walk.size(); I > 0; --I) {
      if (Len)
        ++*Len;
      Lengths[Walk[I - 1]] = Len;
    }
    return Len;
  };

  // A fold class can reference several list variants (left-nested and
  // tree-shaped unions grow theirs one element per iteration). Only the
  // longest spine is worth solving: the shorter ones are strict sub-lists
  // whose structure the full solution subsumes, while genuinely partial
  // repetition (e.g. Figure 16) lives in *different* fold classes.
  // search() seeds its candidates from the operator-head index, so this
  // scan is proportional to fold sites rather than graph size.
  const Pattern FoldPattern = Pattern::parse("(Fold Union Empty ?l)");
  const Symbol ListVar("l");
  std::map<EClassId, std::pair<EClassId, size_t>> BestPerFold;
  for (const auto &[FoldClass, S] : FoldPattern.search(G)) {
    EClassId ListClass = G.find(S[ListVar]);
    std::optional<size_t> Len = spineLength(ListClass);
    if (!Len)
      continue;
    auto [It, Inserted] = BestPerFold.emplace(
        G.find(FoldClass), std::make_pair(ListClass, *Len));
    if (!Inserted && *Len > It->second.second)
      It->second = {ListClass, *Len};
  }
  // Longest spine first (ties in fold class order), so that the site loop
  // solves a whole list before its suffixes, and so that the cap drops the
  // shortest lists rather than the highest class ids.
  std::vector<std::pair<FoldSite, size_t>> Ranked;
  std::set<EClassId> SeenLists;
  for (const auto &[FoldClass, Best] : BestPerFold)
    if (SeenLists.insert(Best.first).second)
      Ranked.push_back({{FoldClass, Best.first}, Best.second});
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  std::vector<FoldSite> Sites;
  for (size_t I = 0; I < Ranked.size() && I < MaxSites; ++I)
    Sites.push_back(Ranked[I].first);
  return Sites;
}

/// Gives every Union ancestor U_j of each class U_k in \p Solved the list
/// [x_j, ..., x_{k-1}, U_k], where x_j..x_{k-1} are the left operands on
/// the right Union spine from U_j down to U_k. fold-intro gives each union
/// only its whole-spine list; extraction needs these prefix variants where
/// U_k holds an inferred program (the dice's three spheres consed onto the
/// union holding its two loops). They are sound for the same reason as the
/// spine lists: U_j is the union of x_j..x_{k-1} and U_k. One Cons and one
/// Fold per ancestor.
static void addPrefixLists(EGraph &G, const std::vector<EClassId> &Solved) {
  // Read every ancestor before the first add: a step is an ancestor class,
  // its left operand, and the step one level down (npos: the solved class).
  struct Step {
    EClassId Ancestor, Elem, Source;
    size_t Below;
  };
  constexpr size_t Npos = static_cast<size_t>(-1);
  std::vector<Step> Steps;
  for (EClassId Src : Solved) {
    const EClassId Source = G.find(Src);
    std::unordered_set<EClassId> Seen{Source};
    auto expand = [&](EClassId Cur, size_t Below) {
      for (ENodeId NId : G.canonicalParents(Cur)) {
        const ENode &N = G.node(NId);
        if (N.kind() != OpKind::Union || G.find(N.child(1)) != Cur)
          continue;
        const EClassId Up = G.nodeClass(NId);
        if (Seen.insert(Up).second)
          Steps.push_back({Up, G.find(N.child(0)), Source, Below});
      }
    };
    const size_t First = Steps.size();
    expand(Source, Npos);
    for (size_t I = First; I < Steps.size(); ++I)
      expand(Steps[I].Ancestor, I);
  }
  if (Steps.empty())
    return;

  const EClassId UnionRef = G.add(ENode(Op::makeOpRef(OpKind::Union), {}));
  const EClassId Empty = G.add(ENode(Op(OpKind::Empty), {}));
  const EClassId Nil = G.add(ENode(Op(OpKind::Nil), {}));
  std::vector<EClassId> Lists(Steps.size());
  for (size_t I = 0; I < Steps.size(); ++I) {
    const Step &S = Steps[I];
    const EClassId Tail =
        S.Below == Npos ? G.add(ENode(Op(OpKind::Cons), {S.Source, Nil}))
                        : Lists[S.Below];
    Lists[I] = G.add(ENode(Op(OpKind::Cons), {S.Elem, Tail}));
    G.merge(S.Ancestor,
            G.add(ENode(Op(OpKind::Fold), {UnionRef, Empty, Lists[I]})));
  }
  G.rebuild();
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
  // The shared-prefix tries are a pure function of the rules, compiled
  // once for the saturation run.
  const RuleSet CompiledRules(Rules);

  EClassId Root = G.addTerm(Input);
  G.rebuild();

  // The job's cancellation token is shared with the solver pipeline so a
  // deadline firing mid-solve stops fitting work between stages and inside
  // the trig frequency scan (previously the one uncancellable span).
  SolverOptions SolverOpts = Opts.Solver;
  SolverOpts.Cancel = Opts.Limits.Cancel;
  const FunctionSolver Solver(SolverOpts);

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

  // One round (the paper: "one iteration suffices"): saturate, then solve
  // every fold site. A cancellation skips the rest of the round.
  auto saturateAndSolve = [&] {
    if (cancelled())
      return;
    // --- Syntactic rewrites (Fig. 5 line 4) -----------------------------
    const auto RewriteStart = Clock::now();
    Result.Stats.Rewriting = Runner(Opts.Limits).run(G, CompiledRules);
    if (Result.Stats.Rewriting.Stop == StopReason::TimeLimit)
      Result.Stats.WallClockTruncated = true;
    Result.Stats.RewriteSeconds =
        std::chrono::duration<double>(Clock::now() - RewriteStart).count();
    Result.Stats.RewriteSearchSeconds = Result.Stats.Rewriting.SearchSec;
    Result.Stats.RewriteApplySeconds = Result.Stats.Rewriting.ApplySec;
    Result.Stats.RewriteRebuildSeconds = Result.Stats.Rewriting.RebuildSec;
    if (cancelled())
      return;

    G.rebuild();
    const auto SolveStart = Clock::now();

    // --- Locate fold contexts -------------------------------------------
    // One site per fold class, its longest list, longest lists first; the
    // scan walks each list spine once (locateFoldSites).
    //
    // Every proper suffix of a spine list is the list of an inner union's
    // fold class (fold-intro shares it), so each suffix is a site of its
    // own. Once a Mapi fits a site's own list, every tail class along its
    // spine is covered and its site is skipped: a closed form that fits
    // indices 0..n-1 fits each suffix after an index shift, so the suffix
    // programs would only lose to the whole-list one. Skipping a site
    // removes alternatives, never soundness, since inference only adds
    // verified equivalences. A list that does not fit leaves its tails
    // uncovered, so a regular run in a suffix (gear's teeth after its body,
    // Fig. 16's partial repetition) is still found at that suffix's site.
    const std::vector<FoldSite> Sites = locateFoldSites(G, Opts.MaxFoldSites);
    std::unordered_set<EClassId> Covered;
    auto coverTails = [&](EClassId List) {
      for (EClassId Cur = G.find(List);;) {
        const ENode *N = spineNode(G, Cur);
        if (!N || N->kind() == OpKind::Nil)
          return;
        Cur = G.find(N->child(1));
        if (!Covered.insert(Cur).second)
          return; // already covered from a longer list, or a cycle
      }
    };

    // --- Determinize, sort, and solve each context (Fig. 5 lines 5-7) ---
    std::vector<EClassId> Solved; // fold classes that got a program
    for (const auto &[FoldClass, ListClass] : Sites) {
      if (cancelled())
        break;
      if (Covered.count(G.find(ListClass)))
        continue;
      ++Result.Stats.FoldSites;
      const size_t RecordsBefore = Result.Stats.Records.size();
      bool Fits = false;
      std::vector<ChainDecomposition> Ds = determinize(G, ListClass);
      Result.Stats.Decompositions += Ds.size();
      for (const ChainDecomposition &D : Ds) {
        for (InferenceRecord &R : inferFunctions(G, ListClass, D, Solver)) {
          Fits = true;
          Result.Stats.Records.push_back(std::move(R));
        }
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
      if (Fits)
        coverTails(ListClass);
      if (Result.Stats.Records.size() > RecordsBefore)
        Solved.push_back(FoldClass);
    }
    if (!cancelled())
      addPrefixLists(G, Solved);
    Result.Stats.SolveSeconds =
        std::chrono::duration<double>(Clock::now() - SolveStart).count();
  };
  saturateAndSolve();
  // A token that fired during the last fold site still marks the result
  // partial.
  (void)cancelled();
  G.rebuild();

  // --- Top-k extraction (Fig. 5 lines 8-9) -------------------------------
  // Once, on the final graph; a cancelled run extracts whatever the graph
  // holds, which keeps the partial-result contract.
  const auto ExtractStart = Clock::now();
  KBestExtractor Extraction(G, costFn(Opts.Cost), Opts.TopK);
  Result.Programs = Extraction.extract(Root);
  Result.Stats.ExtractSeconds =
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
  /// Pending subterms; both walks use explicit stacks, so a program's depth
  /// is bounded by memory rather than by the thread's stack.
  std::vector<const Term *> Todo;

  /// Scans an arithmetic subterm for the closed-form class it realizes.
  void scanForms(const Term *Root) {
    std::vector<const Term *> Stack{Root};
    while (!Stack.empty()) {
      const Term *T = Stack.back();
      Stack.pop_back();
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
        Stack.push_back(Kid.get());
    }
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

  /// Pre-order, left to right, so Loops lists loops in program order.
  void walk(const Term *Root) {
    Todo.push_back(Root);
    while (!Todo.empty()) {
      const Term *T = Todo.back();
      Todo.pop_back();
      visit(T);
    }
  }

  /// Records the loop rooted at \p T, if any, and queues the subterms the
  /// walk continues under.
  void visit(const Term *T) {
    // Mapi tower over a Repeat: one loop; its bound is the Repeat count.
    if (T->kind() == OpKind::Mapi) {
      const Term *Cur = T;
      while (Cur->kind() == OpKind::Mapi) {
        scanForms(Cur->child(0).get());
        Cur = Cur->child(1).get();
      }
      if (Cur->kind() == OpKind::Repeat &&
          Cur->child(1)->kind() == OpKind::Int) {
        Loops.push_back("n1," +
                        std::to_string(Cur->child(1)->op().intValue()));
        Todo.push_back(Cur->child(0).get()); // the repeated element
        return;
      }
      // Mapi over something else: fall through to generic recursion.
    }
    // Fold (Fun i -> ...) over an index list: a counted loop level; nested
    // flat-map folds merge into one n<m> entry.
    if (T->kind() == OpKind::Fold && T->child(0)->kind() == OpKind::Fun &&
        T->child(0)->numChildren() == 2) {
      std::vector<int64_t> Bounds;
      const Term *Cur = T;
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
        scanForms(T->child(0)->child(1).get());
        return;
      }
    }
    for (size_t I = T->numChildren(); I > 0; --I)
      Todo.push_back(T->child(I - 1).get());
  }
};

} // namespace

LoopSummary shrinkray::describeLoops(const TermPtr &Program) {
  LoopWalk W;
  W.walk(Program.get());
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
