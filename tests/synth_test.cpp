//===-- tests/synth_test.cpp - End-to-end pipeline tests ------------------===//

#include "synth/Synthesizer.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "geom/Sample.h"
#include "models/Models.h"
#include "rewrites/Rules.h"

#include <gtest/gtest.h>

using namespace shrinkray;

namespace {

/// Synthesizes and checks that the best program is geometry-preserving.
SynthesisResult synthesizeChecked(const TermPtr &Input,
                                  SynthesisOptions Opts = {}) {
  Synthesizer Synth(Opts);
  SynthesisResult R = Synth.synthesize(Input);
  EXPECT_FALSE(R.Programs.empty());
  geom::SampleOptions SampleOpts;
  SampleOpts.NumPoints = 6000;
  for (const RankedTerm &P : R.Programs) {
    EvalResult Flat = evalToFlatCsg(P.T);
    EXPECT_TRUE(Flat) << Flat.Error << "\n" << printSexp(P.T);
    if (Flat) {
      EXPECT_TRUE(geom::sampleEquivalent(Input, Flat.Value, SampleOpts))
          << prettyPrint(P.T);
    }
  }
  return R;
}

/// The Figure 2 running example: n unit cubes translated along x by 2(i+1).
TermPtr translatedCubes(int N) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= N; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  return tUnionAll(Cubes);
}

/// \p T with the X angle of its \p K-th Rotate (pre-order, 0-based) set
/// to \p XAngle. \p K counts down as Rotates are passed.
TermPtr tiltRotate(const TermPtr &T, int &K, double XAngle) {
  if (T->kind() == OpKind::Rotate && K-- == 0) {
    const TermPtr &V = T->child(0);
    return tRotate(tVec3(tFloat(XAngle), V->child(1), V->child(2)),
                   T->child(1));
  }
  std::vector<TermPtr> Kids;
  for (const TermPtr &C : T->children())
    Kids.push_back(K >= 0 ? tiltRotate(C, K, XAngle) : C);
  return makeTerm(T->op(), std::move(Kids));
}

} // namespace

TEST(SynthTest, FiveCubesBecomeMapi) {
  SynthesisResult R = synthesizeChecked(translatedCubes(5));
  // The best program must expose the loop: Fold + Mapi + Repeat 5.
  const TermPtr &Best = R.best();
  EXPECT_TRUE(containsLoop(Best)) << prettyPrint(Best);
  LoopSummary Loops = describeLoops(Best);
  EXPECT_EQ(Loops.Notation, "n1,5");
  EXPECT_EQ(Loops.Forms, "d1");
  // And it must be much smaller than the input.
  EXPECT_LT(termSize(Best), termSize(translatedCubes(5)));
}

TEST(SynthTest, FiveCubesBestIsWithinTopK) {
  SynthesisResult R = synthesizeChecked(translatedCubes(5));
  EXPECT_GE(R.Programs.size(), 2u);
  EXPECT_EQ(R.structureRank(), 1u);
  // Costs are sorted ascending.
  for (size_t I = 1; I < R.Programs.size(); ++I)
    EXPECT_LE(R.Programs[I - 1].Cost, R.Programs[I].Cost);
}

TEST(SynthTest, TwoCubesStayCompact) {
  // With only two elements a Mapi is *possible* but more costly; the best
  // program should simply be small, and all alternatives sound.
  SynthesisResult R = synthesizeChecked(translatedCubes(2));
  EXPECT_LE(termSize(R.best()), termSize(translatedCubes(2)));
}

TEST(SynthTest, GearTeethExposeRotationLoop) {
  // A 12-tooth gear rim (scaled-down Figure 1): rotated translated teeth.
  std::vector<TermPtr> Teeth;
  TermPtr Tooth = tScale(4, 2, 10, tUnit());
  for (int I = 1; I <= 12; ++I)
    Teeth.push_back(
        tRotate(0, 0, 30.0 * I, tTranslate(20, 0, 0, Tooth)));
  TermPtr Rim = tUnionAll(Teeth);

  SynthesisResult R = synthesizeChecked(Rim);
  const TermPtr &Best = R.best();
  EXPECT_TRUE(containsLoop(Best)) << prettyPrint(Best);
  LoopSummary Loops = describeLoops(Best);
  EXPECT_EQ(Loops.Notation, "n1,12");
  // The rotation heuristic renders the angle as 360 * _ / 12.
  std::string Text = printSexp(Best);
  EXPECT_NE(Text.find("(Div (Mul 360"), std::string::npos) << Text;
  EXPECT_NE(Text.find("12)"), std::string::npos) << Text;
}

TEST(SynthTest, NestedAffineLayersGetNestedMapi) {
  // Figure 10 shape (6 towers so the loop also wins on plain size):
  // cubes under translate+rotate+scale towers with linear parameters.
  std::vector<TermPtr> Items;
  for (int I = 0; I < 6; ++I)
    Items.push_back(tTranslate(
        2.0 * I + 2, 2.0 * I + 4, 2.0 * I + 6,
        tRotate(30.0 + 15.0 * I, 0, 0,
                tScale(2.0 * I + 1, 2.0 * I + 3, 2.0 * I + 5, tUnit()))));
  SynthesisResult R = synthesizeChecked(tUnionAll(Items));
  const TermPtr &Best = R.best();
  EXPECT_TRUE(containsLoop(Best)) << prettyPrint(Best);
  // All three affine layers fold into one loop over the six elements.
  LoopSummary Loops = describeLoops(Best);
  EXPECT_EQ(Loops.Notation, "n1,6");
}

TEST(SynthTest, ThreeTowersLoopIsRepresentedButFlatWins) {
  // With only three elements the Mapi program is *larger*, so plain size
  // keeps the flat model first -- but reward-loops surfaces the loop.
  std::vector<TermPtr> Items;
  for (int I = 0; I < 3; ++I)
    Items.push_back(tTranslate(
        2.0 * I + 2, 2.0 * I + 4, 2.0 * I + 6,
        tRotate(30.0 + 15.0 * I, 0, 0,
                tScale(2.0 * I + 1, 2.0 * I + 3, 2.0 * I + 5, tUnit()))));
  SynthesisOptions Opts;
  Opts.Cost = CostKind::RewardLoops;
  SynthesisResult R = Synthesizer(Opts).synthesize(tUnionAll(Items));
  ASSERT_FALSE(R.Programs.empty());
  EXPECT_TRUE(containsLoop(R.best())) << prettyPrint(R.best());
}

TEST(SynthTest, GridBecomesNestedLoop) {
  // Figure 14: a 2 x 2 grid of cubes at (+-12, +-12).
  std::vector<TermPtr> Items;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Items.push_back(
          tTranslate(24.0 * I - 12, 24.0 * J - 12, 0, tUnit()));
  // Partial-fold hybrids crowd the first ranks (the paper notes the same:
  // below-top-5 programs still carry partial structure), so look a little
  // deeper than the default k for the fully nested loop.
  SynthesisOptions Opts;
  Opts.TopK = 16;
  SynthesisResult R = synthesizeChecked(tUnionAll(Items), Opts);
  bool FoundNested = false;
  for (const RankedTerm &P : R.Programs)
    FoundNested |= describeLoops(P.T).Notation.find("n2,2,2") !=
                   std::string::npos;
  EXPECT_TRUE(FoundNested);
}

TEST(SynthTest, DicePipsNestedLoop) {
  // Figure 17: the "6" face, a 2 x 3 grid of spheres.
  std::vector<TermPtr> Items;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 3; ++J)
      Items.push_back(tTranslate(
          -5, 2.0 - 4.0 * I, 2.0 - 2.0 * J,
          tScale(0.75, 0.75, 0.75, tSphere())));
  SynthesisResult R = synthesizeChecked(tUnionAll(Items));
  bool FoundNested = false;
  for (const RankedTerm &P : R.Programs) {
    std::string N = describeLoops(P.T).Notation;
    FoundNested |= N.find("n2,2,3") != std::string::npos ||
                   N.find("n2,3,2") != std::string::npos;
  }
  EXPECT_TRUE(FoundNested);
}

TEST(SynthTest, UnsortedInputIsSortedThenSolved) {
  // Elements in scrambled order: list manipulation must sort them before
  // the solver can find 2(i+1).
  std::vector<TermPtr> Cubes;
  for (int X : {6, 2, 10, 4, 8})
    Cubes.push_back(tTranslate(X, 0, 0, tUnit()));
  SynthesisResult R = synthesizeChecked(tUnionAll(Cubes));
  EXPECT_TRUE(containsLoop(R.best())) << prettyPrint(R.best());
  EXPECT_EQ(describeLoops(R.best()).Notation, "n1,5");
}

TEST(SynthTest, NoisyInputWithinEpsilonStillSolved) {
  // Decompiler-style roundoff within the paper's epsilon.
  std::vector<TermPtr> Cubes;
  double Noise[] = {0.0004, -0.0007, 0.0002, 0.0009, -0.0003};
  for (int I = 0; I < 5; ++I)
    Cubes.push_back(tTranslate(2.0 * (I + 1) + Noise[I], 0, 0, tUnit()));
  Synthesizer Synth;
  SynthesisResult R = Synth.synthesize(tUnionAll(Cubes));
  ASSERT_FALSE(R.Programs.empty());
  EXPECT_TRUE(containsLoop(R.best())) << prettyPrint(R.best());
  // The snapped program is *approximately* the input's geometry.
  EvalResult Flat = evalToFlatCsg(R.best());
  ASSERT_TRUE(Flat) << Flat.Error;
  geom::SampleOptions Opts;
  Opts.MismatchTolerance = 0.01;
  EXPECT_TRUE(geom::sampleEquivalent(tUnionAll(Cubes), Flat.Value, Opts));
}

TEST(SynthTest, NoStructureMeansNoLoops) {
  // Four unrelated primitives: nothing to parameterize; output stays flat
  // and no bigger than the input (sd-rack / compose behaviour).
  TermPtr Input = tUnionAll({tUnit(), tTranslate(3, 1, 4, tSphere()),
                             tScale(2, 5, 1, tCylinder()),
                             tTranslate(-7, 2, 0.5, tHexagon())});
  SynthesisResult R = synthesizeChecked(Input);
  EXPECT_LE(termSize(R.best()), termSize(Input));
}

TEST(SynthTest, DiffBaseWithRepeatedHoles) {
  // Diff(plate, union of 4 evenly spaced holes): the holes fold, the Diff
  // survives (box-tray shape).
  std::vector<TermPtr> Holes;
  for (int I = 0; I < 4; ++I)
    Holes.push_back(tTranslate(3.0 * I + 1, 1, -0.5,
                               tScale(0.8, 0.8, 2, tCylinder())));
  TermPtr Input = tDiff(tScale(14, 3, 1, tUnit()), tUnionAll(Holes));
  SynthesisResult R = synthesizeChecked(Input);
  EXPECT_TRUE(containsLoop(R.best())) << prettyPrint(R.best());
  EXPECT_EQ(describeLoops(R.best()).Notation, "n1,4");
}

TEST(SynthTest, RewardLoopsCostPrefersStructure) {
  // A 3-element pattern where the Mapi program is *larger* than the flat
  // spine: reward-loops must still surface it first.
  std::vector<TermPtr> Items;
  for (int I = 0; I < 3; ++I)
    Items.push_back(tTranslate(5.0 * I + 3, 2.0 * I + 1, 7.0 * I + 2,
                               tUnit()));
  TermPtr Input = tUnionAll(Items);

  SynthesisOptions SizeOpts;
  SizeOpts.Cost = CostKind::AstSize;
  SynthesisOptions LoopOpts;
  LoopOpts.Cost = CostKind::RewardLoops;
  SynthesisResult ByLoops = Synthesizer(LoopOpts).synthesize(Input);
  ASSERT_FALSE(ByLoops.Programs.empty());
  EXPECT_TRUE(containsLoop(ByLoops.best())) << prettyPrint(ByLoops.best());
}

TEST(SynthTest, StatsArepopulated) {
  SynthesisResult R = Synthesizer().synthesize(translatedCubes(4));
  EXPECT_GT(R.Stats.FoldSites, 0u);
  EXPECT_GT(R.Stats.Decompositions, 0u);
  EXPECT_FALSE(R.Stats.Records.empty());
  EXPECT_GT(R.Stats.ENodes, 0u);
  EXPECT_GT(R.Stats.Seconds, 0.0);
}

TEST(SynthTest, InferenceRecordNotation) {
  InferenceRecord Mapi;
  Mapi.K = InferenceRecord::Kind::Mapi;
  Mapi.Bounds = {60};
  Mapi.Forms = {FormKind::Poly1, FormKind::Constant};
  EXPECT_EQ(Mapi.loopNotation(), "n1,60");
  EXPECT_EQ(Mapi.formNotation(), "d1");

  InferenceRecord Nested;
  Nested.K = InferenceRecord::Kind::NestedFold;
  Nested.Bounds = {3, 5};
  Nested.Forms = {FormKind::Poly1};
  EXPECT_EQ(Nested.loopNotation(), "n2,3,5");

  InferenceRecord Trig;
  Trig.K = InferenceRecord::Kind::Mapi;
  Trig.Bounds = {4};
  Trig.Forms = {FormKind::Trig};
  EXPECT_EQ(Trig.formNotation(), "theta");
}

TEST(SynthTest, DescribeLoopsOnHandWrittenPrograms) {
  // Mapi tower over Repeat: one loop.
  ParseResult P = parseSexp(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Translate (Vec3 "
      "(Mul 2 (Var i)) 0.0 0.0) (Var c))) (Repeat Unit 7)))");
  ASSERT_TRUE(P) << P.Error;
  LoopSummary S = describeLoops(P.Value);
  EXPECT_TRUE(S.HasLoops);
  EXPECT_EQ(S.Notation, "n1,7");
  EXPECT_EQ(S.Forms, "d1");

  // Nested flat-map folds: n2.
  ParseResult Q = parseSexp(
      "(Fold Union Empty (Fold (Fun (Var i) (Fold (Fun (Var j) (Translate "
      "(Vec3 (Var i) (Var j) 0.0) Unit)) Nil (Cons 0 (Cons 1 (Cons 2 "
      "Nil))))) Nil (Cons 0 (Cons 1 Nil))))");
  ASSERT_TRUE(Q) << Q.Error;
  LoopSummary S2 = describeLoops(Q.Value);
  EXPECT_EQ(S2.Notation, "n2,2,3");

  // Flat CSG: no loops.
  LoopSummary S3 = describeLoops(tUnion(tUnit(), tSphere()));
  EXPECT_FALSE(S3.HasLoops);
  EXPECT_EQ(S3.Notation, "");
}

TEST(SynthTest, TrigDiversityForSquarePattern) {
  // Four cubes at the corners of a square: representable as a 2x2 nested
  // loop AND as a trigonometric Mapi. Both should be somewhere in top-k
  // (with a k large enough to hold them).
  std::vector<TermPtr> Items;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Items.push_back(tTranslate(2.0 * I - 1, 2.0 * J - 1, 0, tUnit()));
  SynthesisOptions Opts;
  Opts.TopK = 10;
  SynthesisResult R = Synthesizer(Opts).synthesize(tUnionAll(Items));
  ASSERT_FALSE(R.Programs.empty());
  bool SawTrig = false, SawLoop = false;
  for (const RankedTerm &P : R.Programs) {
    std::string Text = printSexp(P.T);
    SawTrig |= Text.find("Sin") != std::string::npos;
    SawLoop |= describeLoops(P.T).HasLoops;
  }
  EXPECT_TRUE(SawLoop);
  EXPECT_TRUE(SawTrig);
}

TEST(SynthTest, TableOneSlowModelsSaturate) {
  // The two models whose rotate/translate reorders used to cycle until the
  // iteration limit: both must now reach a fixpoint at default fuel.
  for (const char *Name : {"3432939:nintendo-slot", "3362402:gear"}) {
    SynthesisResult R =
        Synthesizer().synthesize(models::modelByName(Name).FlatCsg);
    EXPECT_EQ(R.Stats.Rewriting.Stop, StopReason::Saturated) << Name;
    EXPECT_EQ(R.structureRank(), 1u) << Name;
  }
}

TEST(SynthTest, TiltedGearToothEditsSaturate) {
  // A one-literal edit of a scaled gear: one tooth's Rotate gets an
  // off-axis X angle. The reorders then compute rotated offsets that are
  // not exact in floating point, and without landing back on the original
  // literals they grew the graph to the node limit.
  for (int Teeth : {6, 10, 12, 15, 20}) {
    const TermPtr Gear = tScale(0.75, 0.75, 1, models::gearModel(Teeth));
    for (int Tooth = 0; Tooth < Teeth; ++Tooth) {
      int K = Tooth;
      SynthesisResult R = Synthesizer().synthesize(tiltRotate(Gear, K, 0.5));
      ASSERT_EQ(K, -1) << "gear(" << Teeth << ") has no tooth " << Tooth;
      ASSERT_EQ(R.Stats.Rewriting.Stop, StopReason::Saturated)
          << "gear(" << Teeth << ") tooth " << Tooth;
      EXPECT_LT(R.Stats.ENodes, 5000u)
          << "gear(" << Teeth << ") tooth " << Tooth;
    }
  }
}

namespace {

/// Adds `Fold Union Empty List` and returns the fold's class.
EClassId addUnionFold(EGraph &G, EClassId List) {
  EClassId UnionRef = G.add(ENode(Op::makeOpRef(OpKind::Union), {}));
  EClassId Empty = G.add(ENode(Op(OpKind::Empty), {}));
  return G.add(ENode(Op(OpKind::Fold), {UnionRef, Empty, List}));
}

} // namespace

TEST(FoldSiteTest, CyclicSpineIsNoSite) {
  // A Cons whose tail is merged back into its own class: the spine never
  // reaches Nil, so there is nothing to solve.
  EGraph G;
  EClassId Tail = G.addTerm(tNil());
  EClassId List = G.add(ENode(Op(OpKind::Cons), {G.addTerm(tUnit()), Tail}));
  addUnionFold(G, List);
  G.merge(List, Tail);
  G.rebuild();
  EXPECT_TRUE(locateFoldSites(G, 256).empty());
}

TEST(FoldSiteTest, FoldClassKeepsItsLongestList) {
  // One fold class referencing list variants of lengths 2..5 (the shape
  // fold extension leaves behind) is one site: the first length-5 list.
  EGraph G;
  std::vector<TermPtr> Cubes;
  for (int I = 0; I < 5; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  std::optional<EClassId> Fold;
  EClassId Longest = 0;
  for (size_t Len = 2; Len <= Cubes.size(); ++Len) {
    Longest = G.addTerm(tList({Cubes.begin(), Cubes.begin() + Len}));
    EClassId F = addUnionFold(G, Longest);
    if (Fold)
      G.merge(*Fold, F);
    Fold = F;
  }
  // A second length-5 variant found later ties and does not win.
  std::vector<TermPtr> Reversed(Cubes.rbegin(), Cubes.rend());
  G.merge(*Fold, addUnionFold(G, G.addTerm(tList(Reversed))));
  G.rebuild();
  std::vector<FoldSite> Sites = locateFoldSites(G, 256);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(Sites[0].Fold, G.find(*Fold));
  EXPECT_EQ(Sites[0].List, G.find(Longest));
  EXPECT_EQ(spineElements(G, Sites[0].List)->size(), 5u);
  EXPECT_TRUE(locateFoldSites(G, 0).empty());
}

TEST(FoldSiteTest, CapKeepsTheLongestLists) {
  // Five fold classes whose lists grow with their class ids: a cap of two
  // keeps the two longest, longest first, not the two lowest ids.
  EGraph G;
  std::vector<EClassId> Lists;
  for (int Len = 1; Len <= 5; ++Len) {
    std::vector<TermPtr> Items;
    for (int I = 0; I < Len; ++I)
      Items.push_back(tTranslate(Len, I, 0, tUnit()));
    Lists.push_back(G.addTerm(tList(Items)));
    addUnionFold(G, Lists.back());
  }
  G.rebuild();
  std::vector<FoldSite> All = locateFoldSites(G, 256);
  ASSERT_EQ(All.size(), 5u);
  for (size_t I = 0; I < All.size(); ++I)
    EXPECT_EQ(All[I].List, G.find(Lists[4 - I])) << I;
  std::vector<FoldSite> Capped = locateFoldSites(G, 2);
  ASSERT_EQ(Capped.size(), 2u);
  EXPECT_EQ(Capped[0].List, G.find(Lists[4]));
  EXPECT_EQ(Capped[1].List, G.find(Lists[3]));
}

TEST(SynthTest, FoldSiteCountsOnTableOneModels) {
  // Pins, on three Table 1 models, how many fold contexts the scan finds
  // on the saturated graph and how many of them are solved. Every proper
  // suffix of a list is a site; once a list fits, its suffixes are
  // skipped (gear: the 61-element list fails, its 60 teeth fit).
  struct Row {
    const char *Name;
    size_t Located, Solved;
  };
  const Row Expected[] = {{"3362402:gear", 61, 3},
                          {"3097951:rasp-pie", 78, 42},
                          {"3432939:nintendo-slot", 31, 4}};
  for (const Row &E : Expected) {
    const TermPtr Input = models::modelByName(E.Name).FlatCsg;
    EGraph G;
    G.addTerm(Input);
    G.rebuild();
    const std::vector<Rewrite> Rules = pipelineRules();
    Runner(SynthesisOptions().Limits).run(G, RuleSet(Rules));
    G.rebuild();
    EXPECT_EQ(locateFoldSites(G, 256).size(), E.Located) << E.Name;
    EXPECT_EQ(Synthesizer().synthesize(Input).Stats.FoldSites, E.Solved)
        << E.Name;
  }
}

TEST(SynthTest, RegularChainSolvesOneSite) {
  // The whole list fits, so none of its suffix sites is solved.
  for (int N : {5, 12, 30}) {
    SynthesisResult R = synthesizeChecked(translatedCubes(N));
    EXPECT_EQ(R.Stats.FoldSites, 1u) << N;
    EXPECT_EQ(describeLoops(R.best()).Notation, "n1," + std::to_string(N));
  }
}

TEST(SynthTest, GearTeethAreFoundInTheSuffixOfTheBody) {
  // Body + n teeth: the whole list does not fit, so the suffix sites
  // stay, and the teeth's tail list still gives a rank-1 loop.
  for (int Teeth : {8, 24}) {
    SynthesisResult R = synthesizeChecked(models::gearModel(Teeth));
    EXPECT_EQ(R.structureRank(), 1u) << Teeth;
    EXPECT_NE(describeLoops(R.best()).Notation.find(
                  "n1," + std::to_string(Teeth)),
              std::string::npos)
        << prettyPrint(R.best());
  }
}

TEST(SynthTest, GearSolvesFewSuffixSites) {
  // Solving all 61 sites inserted 704 programs; the 60 teeth's list
  // covers its 59 suffixes.
  SynthesisResult R =
      Synthesizer().synthesize(models::modelByName("3362402:gear").FlatCsg);
  EXPECT_LT(R.Stats.Records.size(), 100u);
}

TEST(SynthTest, HcBitsKeepsStructureUnderRewardLoops) {
  SynthesisOptions Opts;
  Opts.Cost = CostKind::RewardLoops;
  SynthesisResult R = synthesizeChecked(
      models::modelByName("2921167:hc-bits").FlatCsg, Opts);
  EXPECT_EQ(R.structureRank(), 1u);
}

TEST(SynthTest, DescribeLoopsWalksA200000DeepChainIteratively) {
  // Programs built in code have no depth bound; a recursive walk
  // overflowed the stack on chains this deep. A loop at the very bottom of
  // a left-nested Union chain is still found, as is a form at the bottom
  // of a deep arithmetic body.
  TermPtr Offset = tVar("i");
  for (int I = 0; I < 200000; ++I)
    Offset = tAdd(Offset, tFloat(1));
  TermPtr Loop =
      tMapi(tFun({tVar("i"), tVar("c"),
                  tTranslate(tVec3(Offset, tFloat(0), tFloat(0)), tVar("c"))}),
            tRepeat(tUnit(), tInt(7)));
  TermPtr Chain = tFold(tOpRef(OpKind::Union), tEmpty(), Loop);
  for (int I = 0; I < 200000; ++I)
    Chain = tUnion(Chain, tTranslate(I, 0, 0, tUnit()));
  LoopSummary S = describeLoops(Chain);
  EXPECT_TRUE(S.HasLoops);
  EXPECT_EQ(S.Notation, "n1,7");
  EXPECT_EQ(S.Forms, "d1");
}

TEST(SynthTest, LongChainsAndGearsRecoverTheirWholeLoop) {
  // fold-intro adds a right spine's whole list in one step, so the fuel a
  // chain needs does not grow with its length. With one element per
  // iteration, IterLimit 128 capped the loops: a 200-cube chain came back
  // as n1,129 and a 400-cube chain as n1,55. Each input must recover its
  // whole loop at rank 1, with the top-program size of a short input, in
  // a few iterations.
  const uint64_t ChainSize =
      termSize(Synthesizer().synthesize(translatedCubes(12)).best());
  const uint64_t GearSize =
      termSize(Synthesizer().synthesize(models::gearModel(60)).best());
  struct Row {
    TermPtr Input;
    int N;
    uint64_t Size;
  };
  const Row Rows[] = {{translatedCubes(200), 200, ChainSize},
                      {translatedCubes(400), 400, ChainSize},
                      {models::gearModel(200), 200, GearSize},
                      {models::gearModel(240), 240, GearSize},
                      {models::gearModel(400), 400, GearSize}};
  for (const Row &Case : Rows) {
    SynthesisResult R = Synthesizer().synthesize(Case.Input);
    const std::string Loop = "n1," + std::to_string(Case.N);
    EXPECT_EQ(R.Stats.Rewriting.Stop, StopReason::Saturated) << Loop;
    EXPECT_LE(R.Stats.Rewriting.numIterations(), 8u) << Loop;
    EXPECT_EQ(R.structureRank(), 1u) << Loop;
    EXPECT_EQ(describeLoops(R.best()).Notation, Loop);
    EXPECT_EQ(termSize(R.best()), Case.Size) << Loop;
  }
  EXPECT_EQ(ChainSize, 20u);
  EXPECT_EQ(GearSize, 68u);
}

TEST(SynthTest, DiceKeepsBothLoopsUnderRewardLoops) {
  // The dice's top program folds three spheres, a loop of 3 and a loop of
  // 4 in one list: a prefix list [x_j, ..., U_k] over the suffix U_k that
  // holds the loops. fold-intro adds only whole-spine lists, so the
  // synthesizer adds these prefix lists after solving; without them the
  // best program keeps only n1,4, at cost 105.5 instead of 103.5.
  SynthesisOptions Opts;
  Opts.Cost = CostKind::RewardLoops;
  SynthesisResult R =
      synthesizeChecked(models::modelByName("3094201:dice").FlatCsg, Opts);
  EXPECT_EQ(R.structureRank(), 1u);
  EXPECT_EQ(describeLoops(R.best()).Notation, "n1,3; n1,4");
  EXPECT_LT(R.Programs.front().Cost, 104.0);
}
