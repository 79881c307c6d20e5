//===-- tests/ruleset_test.cpp - Compiled rule database + parallel runner -===//
//
// Coverage for the compiled rule database (RuleSet) and the Runner work
// that rides on it:
//
//  * differential: compiled-group search returns exactly the per-rule
//    searchIn() results — same roots, same substitutions, same order —
//    on every rule database the pipeline uses and on adversarial
//    shared-prefix rule sets over hand-built graphs;
//  * trie shape: shared Bind/Compare prefixes are actually merged;
//  * determinism: serial and parallel saturation produce identical
//    e-graphs and identical (non-timing) reports, run to run;
//  * match-limit window: explosive rules are banned even when incremental
//    search keeps their per-search counts small (the dodge), while rules
//    that merely re-find standing matches are not (the over-trigger);
//  * root filter: filtered incremental search returns an in-order
//    subsequence of the unfiltered one that still holds every match the
//    graph gained since the cursor;
//  * dirty-log compaction: bounded growth across long sessions, the
//    conservative fallback below the compaction floor, and lease
//    protection for incremental extraction engines.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/RuleSet.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

using namespace shrinkray;

namespace {

TermPtr parse(const std::string &Sexp) {
  ParseResult R = parseSexp(Sexp);
  EXPECT_TRUE(R) << R.Error << " in " << Sexp;
  return R.Value;
}

/// A distinct solid leaf per index.
EClassId addLeaf(EGraph &G, int I) {
  std::ostringstream Os;
  Os << "(Translate (Vec3 " << I << " 0 0) Unit)";
  return G.addTerm(parse(Os.str()));
}

/// Canonical string key for one match: root class plus each variable's
/// binding in the pattern's variable order.
std::string matchKey(const EGraph &G, const std::vector<Symbol> &Vars,
                     EClassId Root, const Subst &S) {
  std::ostringstream Os;
  Os << G.find(Root);
  for (Symbol V : Vars)
    Os << "|" << V.str() << "=" << G.find(S[V]);
  return Os.str();
}

/// Per-rule match-key sequences from the compiled group search, driven
/// over the full op-index candidates with every rule active.
std::vector<std::vector<std::string>> groupedSearch(const EGraph &G,
                                                    const RuleSet &DB) {
  std::vector<std::vector<std::pair<EClassId, Subst>>> Out(DB.numRules());
  for (size_t GI = 0; GI < DB.numGroups(); ++GI) {
    const std::vector<EClassId> &Bucket = G.classesWithOp(DB.groupOp(GI));
    RuleSet::RuleMask Mask =
        RuleSet::RuleMask::firstN(DB.groupRules(GI).size());
    std::vector<RuleSet::Candidate> Cands;
    Cands.reserve(Bucket.size());
    for (EClassId Id : Bucket)
      Cands.push_back({Id, Mask});
    DB.searchGroup(GI, G, Cands, Out);
  }
  std::vector<std::vector<std::string>> Keys(DB.numRules());
  for (size_t R = 0; R < DB.numRules(); ++R)
    for (const auto &[Root, S] : Out[R])
      Keys[R].push_back(matchKey(G, DB.rules()[R].lhs().vars(), Root, S));
  return Keys;
}

/// The same sequences from the pre-existing one-rule-at-a-time engine.
std::vector<std::vector<std::string>>
perRuleSearch(const EGraph &G, const std::vector<Rewrite> &Rules) {
  std::vector<std::vector<std::string>> Keys(Rules.size());
  for (size_t R = 0; R < Rules.size(); ++R) {
    const std::vector<EClassId> &Bucket =
        G.classesWithOp(Rules[R].lhs().rootOp());
    for (const auto &[Root, S] : Rules[R].searchIn(G, Bucket))
      Keys[R].push_back(matchKey(G, Rules[R].lhs().vars(), Root, S));
  }
  return Keys;
}

void expectSameMatches(const EGraph &G, const std::vector<Rewrite> &Rules,
                       const char *Where) {
  RuleSet DB(Rules);
  std::vector<std::vector<std::string>> Grouped = groupedSearch(G, DB);
  std::vector<std::vector<std::string>> PerRule = perRuleSearch(G, Rules);
  for (size_t R = 0; R < Rules.size(); ++R)
    EXPECT_EQ(Grouped[R], PerRule[R])
        << Where << ": rule " << Rules[R].name();
}

/// Saturates a model's graph partway so the differential runs against a
/// graph with real merge history, not just the freshly added term.
EClassId loadModel(EGraph &G, const std::string &Name, size_t Iters) {
  EClassId Root = G.addTerm(models::modelByName(Name).FlatCsg);
  G.rebuild();
  if (Iters > 0) {
    RunnerLimits L;
    L.IterLimit = Iters;
    Runner(L).run(G, pipelineRules());
  }
  return Root;
}

//===----------------------------------------------------------------------===//
// Differential: grouped search == per-rule search
//===----------------------------------------------------------------------===//

TEST(RuleSetDifferential, PipelineRulesOnModels) {
  for (const char *Name : {"3244600:cnc-end-mill", "3171605:card-org",
                           "3148599:box-tray", "3094201:dice"}) {
    for (size_t Iters : {size_t(0), size_t(4)}) {
      EGraph G;
      loadModel(G, Name, Iters);
      expectSameMatches(G, pipelineRules(), Name);
    }
  }
}

TEST(RuleSetDifferential, EveryRuleFamily) {
  EGraph G;
  loadModel(G, "3148599:box-tray", 3);
  expectSameMatches(G, liftingRules(), "lifting");
  expectSameMatches(G, reorderRules(), "reorder");
  expectSameMatches(G, collapseRules(), "collapse");
  expectSameMatches(G, foldRules(), "fold");
  expectSameMatches(G, booleanRules(true, true), "boolean");
  expectSameMatches(G, identityRules(), "identity");
  expectSameMatches(G, listAlgebraRules(), "list-algebra");
  expectSameMatches(G, allRewrites(), "allRewrites");
}

TEST(RuleSetDifferential, AdversarialSharedPrefixes) {
  // Rules chosen so that: one leaf sits on an interior trie node (the
  // plain (Union ?x ?y) program is a strict prefix of three others), a
  // Compare branch (nonlinear ?x ?x) shares the root Bind, two deeper
  // Binds diverge on different operators at the same registers, and a
  // guard sits at one leaf.
  std::vector<Rewrite> Rules;
  Rules.emplace_back("comm", "(Union ?x ?y)", "(Union ?y ?x)");
  Rules.emplace_back("idem", "(Union ?x ?x)", "?x");
  Rules.emplace_back("assoc", "(Union (Union ?a ?b) ?c)",
                     "(Union ?a (Union ?b ?c))");
  Rules.emplace_back("cons-right", "(Union ?x (Fold Union ?y ?zs))",
                     "(Fold Union ?y (Cons ?x ?zs))");
  Rules.emplace_back("cons-left", "(Union (Fold Union ?y ?zs) ?x)",
                     "(Fold Union ?y (Cons ?x ?zs))");
  Rules.emplace_back("guarded", "(Union ?x ?y)", "?x", isConst("x"));

  RuleSet DB(Rules);
  ASSERT_EQ(DB.numGroups(), 1u);
  // The six programs share one root Bind (and comm/idem/guarded share
  // everything): the trie must be strictly smaller than the sum.
  EXPECT_LT(DB.numTrieNodes(0), DB.numUnmergedInstrs(0));

  // A graph exercising every branch: nested unions, a fold with a cons
  // spine, a numeric class (for the guard, in both guard-passing and
  // guard-failing positions), a class holding several Union nodes (via
  // merges), and a self-referential class.
  EGraph G;
  EClassId N5 = G.addTerm(parse("5"));
  EClassId A = addLeaf(G, 1);
  EClassId B = G.addTerm(parse("Sphere"));
  EClassId AB = G.add(ENode(Op(OpKind::Union), {A, B}));
  EClassId ABC = G.add(ENode(Op(OpKind::Union), {AB, N5}));
  G.add(ENode(Op(OpKind::Union), {N5, A})); // guard passes: ?x is const
  G.addTerm(
      parse("(Union Sphere (Fold Union Empty (Cons Sphere Nil)))"));
  // Multi-node class: AB also spelled Union(B, A).
  EClassId BA = G.add(ENode(Op(OpKind::Union), {B, A}));
  G.merge(AB, BA);
  // Self-referential class: C = Union(C, A).
  EClassId Self = G.add(ENode(Op(OpKind::Union), {ABC, A}));
  G.merge(Self, ABC);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  expectSameMatches(G, Rules, "adversarial");
}

TEST(RuleSetTrie, PipelineGroupsShareSpines) {
  std::vector<Rewrite> Rules = pipelineRules();
  RuleSet DB(Rules);
  // Every rule lands in exactly one group.
  size_t Covered = 0;
  for (size_t GI = 0; GI < DB.numGroups(); ++GI) {
    Covered += DB.groupRules(GI).size();
    EXPECT_LE(DB.numTrieNodes(GI), DB.numUnmergedInstrs(GI));
    for (uint32_t R : DB.groupRules(GI))
      EXPECT_EQ(DB.groupOfRule(R), GI);
  }
  EXPECT_EQ(Covered, Rules.size());
  // The Union group holds the fold/lift/boolean rules and must actually
  // share its root Bind.
  bool FoundUnion = false;
  for (size_t GI = 0; GI < DB.numGroups(); ++GI)
    if (DB.groupOp(GI) == Op(OpKind::Union)) {
      FoundUnion = true;
      EXPECT_GT(DB.groupRules(GI).size(), 5u);
      EXPECT_LT(DB.numTrieNodes(GI), DB.numUnmergedInstrs(GI));
    }
  EXPECT_TRUE(FoundUnion);
}

//===----------------------------------------------------------------------===//
// Root filter: incremental search skips only standing matches
//===----------------------------------------------------------------------===//

using RawMatches = std::vector<std::vector<std::pair<EClassId, Subst>>>;

/// Every group of \p DB searched with all rules active, over the op-index
/// bucket or (with \p Dirty) its dirty part, optionally root-filtered.
RawMatches searchAll(const EGraph &G, const RuleSet &DB,
                     const std::vector<EClassId> *Dirty,
                     const RuleSet::RootFilter *Filter) {
  RawMatches Out(DB.numRules());
  for (size_t GI = 0; GI < DB.numGroups(); ++GI) {
    const std::vector<EClassId> &Bucket = G.classesWithOp(DB.groupOp(GI));
    std::vector<EClassId> Ids;
    if (Dirty)
      std::set_intersection(Bucket.begin(), Bucket.end(), Dirty->begin(),
                            Dirty->end(), std::back_inserter(Ids));
    else
      Ids = Bucket;
    RuleSet::RuleMask Mask =
        RuleSet::RuleMask::firstN(DB.groupRules(GI).size());
    std::vector<RuleSet::Candidate> Cands;
    for (EClassId Id : Ids)
      Cands.push_back({Id, Mask});
    DB.searchGroup(GI, G, Cands, Out, Filter);
  }
  return Out;
}

/// Mutations saturation alone does not produce: a self-referential class
/// (a union merged with its own child), two unrelated solids merged, a
/// fresh constant-folded literal leaf inserted into its class, and a
/// variable merged with a constant, which folds its parent in repair().
void perturb(EGraph &G, int Stage) {
  const std::vector<EClassId> &Unions = G.classesWithOp(Op(OpKind::Union));
  if (!Unions.empty()) {
    EClassId U = Unions[static_cast<size_t>(Stage) % Unions.size()];
    for (ENodeId N : G.eclass(U).Nodes)
      if (G.node(N).kind() == OpKind::Union) {
        G.merge(U, G.node(N).children().back());
        break;
      }
  }
  const std::vector<EClassId> Solids = G.classesWithOp(Op(OpKind::Translate));
  if (Solids.size() >= 2)
    G.merge(Solids[static_cast<size_t>(Stage) % Solids.size()],
            Solids[Solids.size() - 1 - static_cast<size_t>(Stage) % 2]);
  G.add(ENode(Op(OpKind::Add), {G.add(ENode(Op::makeInt(7000 + Stage), {})),
                                G.add(ENode(Op::makeInt(1), {}))}));
  EClassId V = G.add(ENode(Op::makeVar(Symbol("q" + std::to_string(Stage))),
                           {}));
  G.add(ENode(Op(OpKind::Mul), {V, G.add(ENode(Op::makeInt(3), {}))}));
  G.merge(V, G.add(ENode(Op::makeInt(5 + Stage), {})));
}

TEST(RootFilterDifferential, EveryFamilyOnEveryModel) {
  const std::vector<std::pair<const char *, std::vector<Rewrite>>> Families =
      {{"lifting", liftingRules()},
       {"reorder", reorderRules()},
       {"collapse", collapseRules()},
       {"fold", foldRules()},
       {"boolean", booleanRules(true, true)},
       {"identity", identityRules()},
       {"list-algebra", listAlgebraRules()},
       {"pipeline", pipelineRules()}};
  size_t Unfiltered = 0, Filtered = 0, New = 0;
  for (const auto &[Family, Rules] : Families) {
    RuleSet DB(Rules);
    for (const models::BenchmarkModel &M : models::allModels()) {
      const std::string Where = std::string(Family) + " on " + M.Name;
      EGraph G;
      G.addTerm(M.FlatCsg);
      G.rebuild();
      for (int Stage = 0; Stage < 3; ++Stage) {
        const uint64_t Cursor = G.generation();
        const RawMatches Before = searchAll(G, DB, nullptr, nullptr);
        RunnerLimits L;
        L.IterLimit = 1;
        L.NumThreads = 1;
        Runner(L).run(G, DB);
        perturb(G, Stage);
        G.rebuild();
        ASSERT_EQ(G.checkInvariants(), "") << Where;

        const std::vector<EClassId> Dirty = G.takeDirtySince(Cursor);
        const RuleSet::RootFilter Filter(Cursor, Dirty, G.numIds());
        const RawMatches Inc = searchAll(G, DB, &Dirty, nullptr);
        const RawMatches Fil = searchAll(G, DB, &Dirty, &Filter);
        const RawMatches Full = searchAll(G, DB, nullptr, nullptr);
        for (size_t R = 0; R < Rules.size(); ++R) {
          const std::vector<Symbol> &Vars = Rules[R].lhs().vars();
          auto keys = [&](const RawMatches &Ms) {
            std::vector<std::string> Keys;
            for (const auto &[Root, S] : Ms[R])
              Keys.push_back(matchKey(G, Vars, Root, S));
            return Keys;
          };
          const std::vector<std::string> IncKeys = keys(Inc);
          const std::vector<std::string> FilKeys = keys(Fil);
          Unfiltered += IncKeys.size();
          Filtered += FilKeys.size();
          // An in-order subsequence of the unfiltered search.
          size_t Next = 0;
          for (const std::string &K : FilKeys) {
            while (Next < IncKeys.size() && IncKeys[Next] != K)
              ++Next;
            ASSERT_LT(Next, IncKeys.size())
                << Where << ", stage " << Stage << ": rule "
                << Rules[R].name() << " match " << K
                << " out of order or not in the unfiltered search";
            ++Next;
          }
          // Holding every match the graph gained since the cursor (old
          // matches re-canonicalized through today's union-find).
          const std::vector<std::string> OldKeys = keys(Before);
          const std::unordered_set<std::string> Old(OldKeys.begin(),
                                                    OldKeys.end());
          const std::unordered_set<std::string> Kept(FilKeys.begin(),
                                                     FilKeys.end());
          for (const std::string &K : keys(Full)) {
            if (Old.count(K))
              continue;
            ++New;
            EXPECT_TRUE(Kept.count(K))
                << Where << ", stage " << Stage << ": rule "
                << Rules[R].name() << " lost new match " << K;
          }
        }
      }
    }
  }
  // Not vacuous: matches were gained, and standing ones were skipped.
  EXPECT_GT(New, 0u);
  EXPECT_LT(Filtered, Unfiltered);
}

//===----------------------------------------------------------------------===//
// Determinism: serial == parallel, run to run
//===----------------------------------------------------------------------===//

std::string nonTimingFingerprint(const RunnerReport &Rep) {
  std::ostringstream Os;
  Os << static_cast<int>(Rep.Stop) << ";";
  for (const IterationStats &It : Rep.Iterations)
    Os << It.Applied << "," << It.Matches << "," << It.Nodes << ","
       << It.Classes << ";";
  for (const RuleStats &RS : Rep.Rules)
    Os << RS.Name << "," << RS.Matches << "," << RS.Applied << ","
       << RS.FullSearches << "," << RS.IncrementalSearches << "," << RS.Bans
       << ";";
  return Os.str();
}

TEST(RunnerParallel, SerialAndParallelAreBitIdentical) {
  auto runWith = [&](size_t Threads, std::string &Dump) {
    EGraph G;
    G.addTerm(models::modelByName("3148599:box-tray").FlatCsg);
    G.rebuild();
    RunnerLimits L;
    L.NumThreads = Threads;
    RunnerReport Rep = Runner(L).run(G, pipelineRules());
    EXPECT_EQ(G.checkInvariants(), "");
    Dump = G.dump();
    return nonTimingFingerprint(Rep);
  };
  std::string D1, D4a, D4b;
  std::string F1 = runWith(1, D1);
  std::string F4a = runWith(4, D4a);
  std::string F4b = runWith(4, D4b);
  EXPECT_EQ(F1, F4a);
  EXPECT_EQ(F4a, F4b);
  EXPECT_EQ(D1, D4a);
  EXPECT_EQ(D4a, D4b);
}

TEST(RunnerParallel, CompiledAndUncompiledOverloadsAgree) {
  std::vector<Rewrite> Rules = pipelineRules();
  RuleSet DB(Rules);
  EGraph G1, G2;
  G1.addTerm(models::modelByName("3171605:card-org").FlatCsg);
  G2.addTerm(models::modelByName("3171605:card-org").FlatCsg);
  G1.rebuild();
  G2.rebuild();
  RunnerReport R1 = Runner().run(G1, Rules);
  RunnerReport R2 = Runner().run(G2, DB);
  EXPECT_EQ(nonTimingFingerprint(R1), nonTimingFingerprint(R2));
  EXPECT_EQ(G1.dump(), G2.dump());
}

//===----------------------------------------------------------------------===//
// Match-limit semantics under incremental search
//===----------------------------------------------------------------------===//

TEST(MatchLimitWindow, ExplosiveRuleIsBannedUnderIncrementalSearch) {
  // The dodge scenario: cons-repeat-grow walks outward along a literal
  // 80-element spine of one repeated solid, merging one level per
  // iteration. Incremental search keeps every per-search match count at
  // 1-2 (old levels leave the dirty closure, so nothing is re-found),
  // but the rule's distinct-merge window accumulates past the limit —
  // under the old per-search-count semantics it would never be banned.
  EGraph G;
  EClassId X = addLeaf(G, 7);
  EClassId Spine = G.addTerm(parse("Nil"));
  for (int I = 0; I < 80; ++I)
    Spine = G.add(ENode(Op(OpKind::Cons), {X, Spine}));
  for (int I = 0; I < 4000; ++I) // keep the dirty closure below the
    G.add(ENode(Op::makeInt(I + 1000), {})); // full-search fallback
  G.rebuild();
  RunnerLimits L;
  L.MatchLimit = 50;
  L.IterLimit = 200;
  RunnerReport Rep = Runner(L).run(G, listAlgebraRules());
  size_t GrowBans = 0;
  for (const RuleStats &RS : Rep.Rules)
    if (RS.Name == "cons-repeat-grow")
      GrowBans = RS.Bans;
  EXPECT_GE(GrowBans, 1u);
  // Proof the ban came from the window: no iteration found more matches
  // (across ALL rules) than a fraction of the limit, so the per-search
  // trigger cannot have fired.
  for (const IterationStats &It : Rep.Iterations)
    EXPECT_LE(It.Matches, L.MatchLimit / 2);
  EXPECT_EQ(G.checkInvariants(), "");
}

TEST(MatchLimitWindow, RefoundStandingMatchesDoNotOverTrigger) {
  // Ten unions over every pair of five leaves: commutativity merges each
  // once (10 distinct merges), then only re-finds the same standing
  // matches. The unions are two thirds of the graph, so after the first
  // iteration's merges the dirty closure exceeds half of it and the next
  // search takes the unfiltered full-search fallback, re-finding all 20
  // standing matches (an incremental search's root filter would skip the
  // old spellings). Total found across the run exceeds the limit; the
  // distinct-merge window stays at 10 and the per-search count at 20, so
  // nothing may be banned.
  EGraph G;
  std::vector<EClassId> Leaves;
  for (int I = 0; I < 5; ++I)
    Leaves.push_back(
        G.add(ENode(Op::makeVar(Symbol("v" + std::to_string(I))), {})));
  for (size_t I = 0; I < Leaves.size(); ++I)
    for (size_t J = I + 1; J < Leaves.size(); ++J)
      G.add(ENode(Op(OpKind::Union), {Leaves[I], Leaves[J]}));
  G.rebuild();
  RunnerLimits L;
  L.MatchLimit = 25;
  L.IterLimit = 12;
  RunnerReport Rep = Runner(L).run(
      G, booleanRules(/*IncludeAssociativity=*/false,
                      /*IncludeCommutativity=*/true));
  size_t TotalFound = 0;
  for (const RuleStats &RS : Rep.Rules) {
    TotalFound += RS.Matches;
    EXPECT_EQ(RS.Bans, 0u) << RS.Name;
    if (RS.Name == "union-comm") {
      EXPECT_EQ(RS.Applied, 10u);
      EXPECT_EQ(RS.FullSearches, 2u); // the re-find ran unfiltered
    }
  }
  EXPECT_GT(TotalFound, L.MatchLimit); // the old accumulate-everything
                                       // semantics would have banned
}

//===----------------------------------------------------------------------===//
// Dirty-log compaction
//===----------------------------------------------------------------------===//

TEST(DirtyLogCompaction, CompactionDropsDeadPrefixAndFallsBackSoundly) {
  EGraph G;
  G.addTerm(models::modelByName("3171605:card-org").FlatCsg);
  G.rebuild();
  ASSERT_GT(G.dirtyLogSize(), 0u);
  uint64_t Mid = G.generation() / 2;
  G.compactDirtyLog(Mid);
  // Cursors at or above the floor stay exact...
  EXPECT_TRUE(G.takeDirtySince(G.generation()).empty());
  // ...and a cursor behind the floor degrades to every class (sound).
  EXPECT_EQ(G.takeDirtySince(0), G.classIds());
  G.compactDirtyLog(G.generation());
  EXPECT_EQ(G.dirtyLogSize(), 0u);
}

TEST(DirtyLogCompaction, LongSessionGrowthIsBounded) {
  // Many saturation runs against one graph, each adding fresh structure:
  // without compaction the log grows with total session mutations; with
  // it, the log at rest holds at most the entries the *last* run's
  // cursors still straddle.
  EGraph G;
  std::vector<Rewrite> Rules = pipelineRules();
  RuleSet DB(Rules);
  Runner R;
  size_t MaxLogAtRest = 0;
  for (int Round = 0; Round < 6; ++Round) {
    std::ostringstream Os;
    Os << "(Union (Translate (Vec3 " << Round + 1
       << " 0 0) Unit) (Translate (Vec3 0 0 " << Round + 1
       << ") Sphere))";
    G.addTerm(parse(Os.str()));
    G.rebuild();
    R.run(G, DB);
    MaxLogAtRest = std::max(MaxLogAtRest, G.dirtyLogSize());
  }
  // The generation counter records every mutation of the session; the
  // compacted log must stay well below it.
  EXPECT_GT(G.generation(), 8u * MaxLogAtRest);
  EXPECT_EQ(G.checkInvariants(), "");
}

TEST(DirtyLogCompaction, LeaseProtectsIncrementalExtraction) {
  EGraph G;
  EClassId Root = G.addTerm(
      models::modelByName("3244600:cnc-end-mill").FlatCsg);
  G.rebuild();
  AstSizeCost Cost;
  Extractor Eng(G, Cost); // acquires a lease at the current generation
  // A saturation run that compacts the log each iteration. The lease
  // must keep the suffix the engine's refresh() will ask for.
  Runner().run(G, pipelineRules());
  ASSERT_GT(G.dirtyLogSize(), 0u) << "lease did not hold the log suffix";
  Eng.refresh();
  ReferenceExtractor Oracle(G, Cost);
  ASSERT_TRUE(Eng.bestCost(Root).has_value());
  EXPECT_EQ(*Eng.bestCost(Root), *Oracle.bestCost(Root));
  EXPECT_TRUE(termEquals(Eng.extract(Root), Oracle.extract(Root)));
}

TEST(MatchLimitWindow, MidApplyBanCapsStreakNearLimit) {
  // Six staggered spine walks (cons-repeat-grow advances one level per
  // spine per iteration) accumulate 6 distinct merges per incremental
  // iteration. With MatchLimit = 30 the streak crosses the limit partway
  // through an iteration; the mid-apply trigger must ban the rule at
  // exactly limit+1 cumulative merges — discarding the iteration's
  // remaining matches and rolling the cursor back — rather than letting
  // the whole iteration through and banning at the next one (the old
  // policy, which overshoots by up to one iteration's merges).
  auto build = [](EGraph &G) {
    // Pre-seed every Int literal the walk will materialize, so both the
    // banned and the unlimited runs allocate identical class ids and the
    // final dumps are comparable bit for bit.
    for (int K = 1; K <= 16; ++K)
      G.addTerm(parse(std::to_string(K)));
    for (int S = 0; S < 6; ++S) {
      EClassId X = addLeaf(G, 500 + S);
      EClassId One = G.addTerm(parse("1"));
      EClassId Level = G.add(ENode(Op(OpKind::Repeat), {X, One}));
      for (int L = 0; L < 12; ++L)
        Level = G.add(ENode(Op(OpKind::Cons), {X, Level}));
    }
    for (int I = 0; I < 2000; ++I) // keep dirty closures below the
      G.add(ENode(Op::makeInt(I + 5000), {})); // full-search fallback
    G.rebuild();
  };

  std::vector<Rewrite> Rules;
  for (Rewrite &R : listAlgebraRules())
    if (R.name() == "cons-repeat-grow")
      Rules.push_back(std::move(R));
  ASSERT_EQ(Rules.size(), 1u);

  EGraph G;
  build(G);
  RunnerLimits L;
  L.MatchLimit = 30;
  L.IterLimit = 80;
  RunnerReport Rep = Runner(L).run(G, Rules);
  EXPECT_GE(Rep.Rules[0].Bans, 1u);
  // The window trigger, not the per-search one: every search stayed
  // under the limit.
  for (const IterationStats &It : Rep.Iterations)
    EXPECT_LE(It.Matches, L.MatchLimit);
  // The streak was cut at exactly limit+1 cumulative merges: some
  // iteration prefix sums to 31. The old next-iteration trigger would
  // jump from 30 straight to 36.
  std::vector<size_t> Prefix;
  size_t Sum = 0;
  for (const IterationStats &It : Rep.Iterations)
    Prefix.push_back(Sum += It.Applied);
  EXPECT_NE(std::find(Prefix.begin(), Prefix.end(), L.MatchLimit + 1),
            Prefix.end())
      << "streak not capped at MatchLimit + 1";
  EXPECT_EQ(G.checkInvariants(), "");

  // Rollback soundness: the discarded matches are re-found after the ban,
  // and the run converges to the identical graph an unlimited run builds.
  EGraph Unlimited;
  build(Unlimited);
  RunnerLimits UL;
  UL.IterLimit = 80;
  RunnerReport URep = Runner(UL).run(Unlimited, Rules);
  EXPECT_EQ(URep.Stop, StopReason::Saturated);
  EXPECT_EQ(Rep.Stop, StopReason::Saturated);
  EXPECT_EQ(G.dump(), Unlimited.dump());
  EXPECT_EQ(Rep.Rules[0].Applied, URep.Rules[0].Applied);
}

//===----------------------------------------------------------------------===//
// Wide groups (masks past 64 rules)
//===----------------------------------------------------------------------===//

TEST(RuleSetWideGroup, GroupsPast64RulesKeepExactMasks) {
  // 70 rules rooted at Union exceed one 64-bit mask word. The compiled
  // group must keep exact per-candidate rule selection for every member
  // — the former single-word mask would silently drop rules 64..69.
  std::vector<Rewrite> Rules;
  for (int I = 0; I < 70; ++I) {
    std::string Name = "wide-" + std::to_string(I);
    if (I % 2 == 0)
      Rules.emplace_back(Name, "(Union ?a ?b)", "(Union ?b ?a)");
    else
      Rules.emplace_back(Name, "(Union (Translate ?v ?x) ?b)",
                         "(Union ?b (Translate ?v ?x))");
  }

  EGraph G;
  for (int I = 0; I < 5; ++I)
    G.add(ENode(Op(OpKind::Union), {addLeaf(G, I), addLeaf(G, 50 + I)}));
  G.rebuild();

  RuleSet DB(Rules);
  ASSERT_EQ(DB.numGroups(), 1u);
  ASSERT_EQ(DB.groupRules(0).size(), 70u);

  // Full differential: grouped search == per-rule search for all 70.
  expectSameMatches(G, Rules, "wide group");

  // Mask bits above 63 select exactly their rule: a candidate list that
  // enables only local rule 69 must fill only Out[69].
  const std::vector<EClassId> &Bucket =
      G.classesWithOp(DB.groupOp(0));
  RuleSet::RuleMask Only69;
  Only69.set(69);
  std::vector<RuleSet::Candidate> Cands;
  for (EClassId Id : Bucket)
    Cands.push_back({Id, Only69});
  std::vector<std::vector<std::pair<EClassId, Subst>>> Out(DB.numRules());
  DB.searchGroup(0, G, Cands, Out);
  for (size_t R = 0; R < Out.size(); ++R) {
    if (R == 69)
      EXPECT_FALSE(Out[R].empty());
    else
      EXPECT_TRUE(Out[R].empty()) << "rule " << R;
  }

  // End to end: the Runner drives the wide group to saturation with the
  // masks flowing through scheduling, and the result is sound.
  RunnerLimits L;
  L.IterLimit = 8;
  Runner(L).run(G, DB);
  EXPECT_EQ(G.checkInvariants(), "");
}

TEST(DirtyLogCompaction, ReleasedLeaseUnblocksCompaction) {
  EGraph G;
  G.addTerm(parse("(Union Unit Sphere)"));
  G.rebuild();
  {
    AstSizeCost Cost;
    Extractor Eng(G, Cost);
    G.addTerm(parse("(Translate (Vec3 9 9 9) Sphere)"));
    G.rebuild();
    G.compactDirtyLog(G.generation());
    EXPECT_GT(G.dirtyLogSize(), 0u); // lease pins the suffix
  }
  G.compactDirtyLog(G.generation()); // lease released: everything dead
  EXPECT_EQ(G.dirtyLogSize(), 0u);
}

} // namespace
