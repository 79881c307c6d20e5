//===-- tests/eval_test.cpp - LambdaCAD evaluator tests -------------------===//

#include "cad/Eval.h"
#include "cad/Sexp.h"

#include <gtest/gtest.h>

using namespace shrinkray;

namespace {

TermPtr evalOk(const TermPtr &T) {
  EvalResult R = evalToFlatCsg(T);
  if (!R) {
    ADD_FAILURE() << "evaluation failed: " << R.Error;
    return tEmpty();
  }
  return R.Value;
}

TermPtr evalOk(std::string_view Sexp) {
  ParseResult P = parseSexp(Sexp);
  if (!P) {
    ADD_FAILURE() << "parse failed: " << P.Error;
    return tEmpty();
  }
  return evalOk(P.Value);
}

} // namespace

TEST(EvalTest, PrimitivePassesThrough) {
  EXPECT_EQ(evalOk(tUnit())->kind(), OpKind::Unit);
}

TEST(EvalTest, FlatCsgIsFixedPoint) {
  TermPtr T = tDiff(tScale(2, 3, 4, tCylinder()),
                    tTranslate(1, 0, 0, tUnit()));
  EXPECT_TRUE(termApproxEquals(T, evalOk(T), 1e-12));
}

TEST(EvalTest, ArithmeticInVectors) {
  TermPtr Out = evalOk("(Translate (Vec3 (Add 1.0 2.0) (Mul 2.0 3.0) "
                       "(Sub 5.0 1.0)) Unit)");
  TermPtr Expect = tTranslate(3, 6, 4, tUnit());
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-12));
}

TEST(EvalTest, TrigDegreesSemantics) {
  TermPtr Out = evalOk("(Translate (Vec3 (Sin 90.0) (Cos 180.0) "
                       "(Arctan 1.0 1.0)) Unit)");
  TermPtr Expect = tTranslate(1.0, -1.0, 45.0, tUnit());
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-9));
}

TEST(EvalTest, DivisionByZeroFails) {
  ParseResult P = parseSexp("(Translate (Vec3 (Div 1.0 0.0) 0.0 0.0) Unit)");
  ASSERT_TRUE(P);
  EvalResult R = evalToFlatCsg(P.Value);
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(EvalTest, FoldUnionOverConsList) {
  TermPtr Out = evalOk("(Fold Union Empty (Cons Unit (Cons Sphere Nil)))");
  // Fold(Union, Empty, [a; b]) == Union(a, b) (Empty elided).
  EXPECT_TRUE(termEquals(Out, tUnion(tUnit(), tSphere())));
}

TEST(EvalTest, FoldDiffIsRightFold) {
  TermPtr Out = evalOk("(Fold Diff Unit (Cons Sphere (Cons Cylinder Nil)))");
  // fold(diff, unit, [s; c]) = diff(s, diff(c, unit))
  EXPECT_TRUE(
      termEquals(Out, tDiff(tSphere(), tDiff(tCylinder(), tUnit()))));
}

TEST(EvalTest, RepeatBuildsNCopies) {
  TermPtr Out = evalOk("(Fold Union Empty (Repeat Unit 3))");
  EXPECT_TRUE(termEquals(Out, tUnion(tUnit(), tUnion(tUnit(), tUnit()))));
}

TEST(EvalTest, RepeatRejectsNegativeCount) {
  EXPECT_FALSE(evalToFlatCsg(parseSexp("(Fold Union Empty "
                                       "(Repeat Unit -1))").Value));
}

TEST(EvalTest, MapiPassesIndexAndElement) {
  // Mapi (i, c) -> Translate(2*(i+1), 0, 0, c) over Repeat(Unit, 3)
  TermPtr Out = evalOk(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Translate "
      "(Vec3 (Mul 2.0 (Add (Var i) 1)) 0.0 0.0) (Var c))) (Repeat Unit 3)))");
  TermPtr Expect = tUnionAll({tTranslate(2, 0, 0, tUnit()),
                              tTranslate(4, 0, 0, tUnit()),
                              tTranslate(6, 0, 0, tUnit())});
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-9));
}

TEST(EvalTest, PaperFigure2FiveCubes) {
  // The running example: 5 cubes at x = 2, 4, 6, 8, 10.
  TermPtr Out = evalOk(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Translate "
      "(Vec3 (Mul 2.0 (Add (Var i) 1)) 0.0 0.0) (Var c))) (Repeat Unit 5)))");
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= 5; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  EXPECT_TRUE(termApproxEquals(Out, tUnionAll(Cubes), 1e-9));
}

TEST(EvalTest, NestedMapiComposesTransforms) {
  // Figure 10 shape: Mapi translate over Mapi scale.
  TermPtr Out = evalOk(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var a) (Translate (Vec3 "
      "(Add (Mul 2.0 (Var i)) 2.0) 0.0 0.0) (Var a))) (Mapi (Fun (Var i) "
      "(Var a) (Scale (Vec3 (Add (Mul 2.0 (Var i)) 1.0) 1.0 1.0) (Var a))) "
      "(Repeat Unit 2))))");
  TermPtr Expect = tUnion(tTranslate(2, 0, 0, tScale(1, 1, 1, tUnit())),
                          tTranslate(4, 0, 0, tScale(3, 1, 1, tUnit())));
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-9));
}

TEST(EvalTest, FoldAsFlatMapBuildsNestedLoops) {
  // Figure 14 shape: Fold (Fun i -> Fold (Fun j -> cad, Nil, [0;1]),
  //                        Nil, [0;1]) flat-maps into a 4-element list.
  TermPtr Out = evalOk(
      "(Fold Union Empty (Fold (Fun (Var i) (Fold (Fun (Var j) (Translate "
      "(Vec3 (Sub (Mul 24.0 (Var i)) 12.0) (Sub (Mul 24.0 (Var j)) 12.0) "
      "0.0) Unit)) Nil (Cons 0 (Cons 1 Nil)))) Nil (Cons 0 (Cons 1 Nil))))");
  TermPtr Expect = tUnionAll({tTranslate(-12, -12, 0, tUnit()),
                              tTranslate(-12, 12, 0, tUnit()),
                              tTranslate(12, -12, 0, tUnit()),
                              tTranslate(12, 12, 0, tUnit())});
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-9));
}

TEST(EvalTest, ExternalIsOpaqueButPreserved) {
  TermPtr Out = evalOk("(Union (External mirror-part) Unit)");
  ASSERT_EQ(Out->kind(), OpKind::Union);
  EXPECT_EQ(Out->child(0)->kind(), OpKind::External);
  EXPECT_EQ(Out->child(0)->op().symbol().str(), "mirror-part");
}

TEST(EvalTest, UnboundVariableFails) {
  EvalResult R = evalToFlatCsg(parseSexp("(Translate (Vec3 (Var i) 0.0 0.0) "
                                         "Unit)").Value);
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("unbound"), std::string::npos);
}

TEST(EvalTest, FuelBoundsRunawayPrograms) {
  // Huge Repeat exhausts fuel instead of hanging.
  ParseResult P = parseSexp("(Fold Union Empty (Repeat Unit 9000000))");
  ASSERT_TRUE(P);
  EvalResult R = evalToFlatCsg(P.Value, /*FuelLimit=*/1000);
  EXPECT_FALSE(R);
}

TEST(EvalTest, LexicalScopingOfClosures) {
  // Map (fun c -> translate(x-from-outer, c)) where the closure captures
  // the outer Mapi's index: inner function sees the right i.
  TermPtr Out = evalOk(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (App (Fun (Var k) "
      "(Translate (Vec3 (Mul 3.0 (Var i)) (Var k) 0.0) (Var c))) 7.0)) "
      "(Repeat Unit 2)))");
  TermPtr Expect = tUnion(tTranslate(0, 7, 0, tUnit()),
                          tTranslate(3, 7, 0, tUnit()));
  EXPECT_TRUE(termApproxEquals(Out, Expect, 1e-9));
}

TEST(EvalTest, ResultIsAlwaysFlat) {
  TermPtr Out = evalOk("(Fold Union Empty (Mapi (Fun (Var i) (Var c) "
                       "(Rotate (Vec3 0.0 0.0 (Mul 60.0 (Var i))) (Var c))) "
                       "(Repeat (Translate (Vec3 2.0 0.0 0.0) Unit) 6)))");
  EXPECT_TRUE(isFlatCsg(Out));
  EXPECT_EQ(termPrimitives(Out), 6u);
}

TEST(EvalTest, FlattenedDepthIsBoundedByMaxSourceDepth) {
  // 40 bytes that flatten into a 300000-deep Union spine: the walkers
  // downstream recurse per level, so the result is refused, with the
  // parsers' diagnostic, instead of overflowing their stack.
  ParseResult Deep = parseSexp("(Fold Union Empty (Repeat Unit 300000))");
  ASSERT_TRUE(Deep);
  EvalResult R = evalToFlatCsg(Deep.Value);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, "nesting deeper than " + std::to_string(kMaxSourceDepth));

  ParseResult Shallow = parseSexp("(Fold Union Empty (Repeat Unit 500))");
  ASSERT_TRUE(Shallow);
  EvalResult Ok = evalToFlatCsg(Shallow.Value);
  ASSERT_TRUE(Ok) << Ok.Error;
  EXPECT_LE(Ok.Value->depth(), kMaxSourceDepth);
  EXPECT_EQ(termPrimitives(Ok.Value), 500u);
}
