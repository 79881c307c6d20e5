//===-- tests/scad_test.cpp - OpenSCAD frontend/backend tests -------------===//

#include "scad/ScadEmitter.h"
#include "scad/ScadParser.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "geom/Sample.h"

#include <gtest/gtest.h>

using namespace shrinkray;
using namespace shrinkray::scad;

namespace {

TermPtr parseOk(std::string_view Src) {
  ScadResult R = parseScad(Src);
  EXPECT_TRUE(R) << R.Error;
  return R.Value ? R.Value : tEmpty();
}

} // namespace

TEST(ScadParseTest, CubeVariants) {
  EXPECT_TRUE(termApproxEquals(parseOk("cube(2);"),
                               tScale(2, 2, 2, tUnit()), 1e-12));
  EXPECT_TRUE(termApproxEquals(parseOk("cube([1, 2, 3]);"),
                               tScale(1, 2, 3, tUnit()), 1e-12));
  EXPECT_TRUE(termApproxEquals(
      parseOk("cube([2, 2, 2], center=true);"),
      tTranslate(-1, -1, -1, tScale(2, 2, 2, tUnit())), 1e-12));
}

TEST(ScadParseTest, CylinderAndSphere) {
  EXPECT_TRUE(termApproxEquals(parseOk("cylinder(h=10, r=3);"),
                               tScale(3, 3, 10, tCylinder()), 1e-12));
  EXPECT_TRUE(termApproxEquals(parseOk("sphere(r=4);"),
                               tScale(4, 4, 4, tSphere()), 1e-12));
  EXPECT_TRUE(termApproxEquals(parseOk("sphere(4);"),
                               tScale(4, 4, 4, tSphere()), 1e-12));
}

TEST(ScadParseTest, HexagonalPrismIdiom) {
  // cylinder($fn=6) is the OpenSCAD idiom for hexagonal prisms.
  EXPECT_TRUE(termApproxEquals(parseOk("cylinder(h=2, r=5, $fn=6);"),
                               tScale(5, 5, 2, tHexagon()), 1e-12));
}

TEST(ScadParseTest, Transforms) {
  TermPtr T = parseOk("translate([1, 2, 3]) cube(1);");
  EXPECT_TRUE(termApproxEquals(
      T, tTranslate(1, 2, 3, tScale(1, 1, 1, tUnit())), 1e-12));
  TermPtr R = parseOk("rotate([0, 0, 45]) sphere(1);");
  ASSERT_EQ(R->kind(), OpKind::Rotate);
  TermPtr RScalar = parseOk("rotate(45) sphere(1);");
  // rotate(45) is rotation about z.
  EXPECT_TRUE(termApproxEquals(R, RScalar, 1e-12));
}

TEST(ScadParseTest, BooleansWithBlocks) {
  TermPtr T = parseOk("difference() { cube(10); sphere(3); cylinder(h=1, "
                      "r=1); }");
  ASSERT_EQ(T->kind(), OpKind::Diff);
  // difference(a, b, c) == Diff(a, Union(b, c)).
  EXPECT_EQ(T->child(1)->kind(), OpKind::Union);
  TermPtr I = parseOk("intersection() { cube(4); sphere(3); }");
  EXPECT_EQ(I->kind(), OpKind::Inter);
}

TEST(ScadParseTest, TopLevelStatementsUnion) {
  TermPtr T = parseOk("cube(1); sphere(2);");
  EXPECT_EQ(T->kind(), OpKind::Union);
}

TEST(ScadParseTest, Assignments) {
  TermPtr T = parseOk("w = 4; h = w * 2 + 1; cube([w, w, h]);");
  EXPECT_TRUE(termApproxEquals(T, tScale(4, 4, 9, tUnit()), 1e-12));
}

TEST(ScadParseTest, ForLoopUnrolls) {
  // The paper's flattening translator: loops become repeated children.
  TermPtr T = parseOk("for (i = [0 : 4]) translate([2 * (i + 1), 0, 0]) "
                      "cube(1);");
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= 5; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tScale(1, 1, 1, tUnit())));
  EXPECT_TRUE(termApproxEquals(T, tUnionAll(Cubes), 1e-9));
}

TEST(ScadParseTest, ForLoopWithStep) {
  TermPtr T = parseOk("for (a = [0 : 90 : 270]) rotate([0, 0, a]) cube(2);");
  EXPECT_EQ(termPrimitives(T), 4u);
}

TEST(ScadParseTest, ForOverVector) {
  TermPtr T = parseOk("for (x = [1, 4, 9]) translate([x, 0, 0]) sphere(1);");
  EXPECT_EQ(termPrimitives(T), 3u);
}

TEST(ScadParseTest, NestedForLoops) {
  TermPtr T = parseOk("for (i = [0 : 1]) for (j = [0 : 2]) "
                      "translate([10 * i, 7 * j, 0]) cube(1);");
  EXPECT_EQ(termPrimitives(T), 6u);
}

TEST(ScadParseTest, CommentsAndTrig) {
  TermPtr T = parseOk("// top\nr = 2; /* block */\n"
                      "translate([r * sin(90), r * cos(0), 0]) cube(1);");
  ASSERT_EQ(T->kind(), OpKind::Translate);
  EXPECT_NEAR(T->child(0)->child(0)->op().numericValue(), 2.0, 1e-12);
}

TEST(ScadParseTest, Errors) {
  EXPECT_FALSE(parseScad("frobnicate(1);"));
  EXPECT_FALSE(parseScad("cube(1)"));        // missing semicolon
  EXPECT_FALSE(parseScad("cube(unknown);")); // unknown variable
  EXPECT_FALSE(parseScad("translate([1,2]) cube(1);")); // bad vector
  EXPECT_FALSE(parseScad("x = 1 / 0; cube(x);"));       // div by zero
  EXPECT_FALSE(parseScad("union() { cube(1); "));       // unterminated
}

namespace {

/// \p N nested `union() { ... }` blocks around one cube.
std::string nestedUnionBlocks(size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I)
    S += "union() { ";
  S += "cube(1);";
  for (size_t I = 0; I < N; ++I)
    S += " }";
  return S;
}

} // namespace

TEST(ScadParseTest, NestingIsBoundedByMaxSourceDepth) {
  EXPECT_TRUE(termApproxEquals(parseOk(nestedUnionBlocks(64)),
                               parseOk("cube(1);"), 1e-12));
  ScadResult Deep = parseScad(nestedUnionBlocks(20000));
  ASSERT_FALSE(Deep);
  EXPECT_NE(Deep.Error.find("nesting deeper than"), std::string::npos)
      << Deep.Error;
  // Expressions recurse too: parentheses and unary minus.
  for (const char *Open : {"(", "-"}) {
    std::string Src = "x = ";
    for (int I = 0; I < 20000; ++I)
      Src += Open;
    Src += "1";
    if (*Open == '(')
      Src += std::string(20000, ')');
    Src += "; cube(x);";
    ScadResult R = parseScad(Src);
    ASSERT_FALSE(R) << Open;
    EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos)
        << R.Error;
  }
}

TEST(ScadParseTest, LongUnrolledLoopIsRejectedByTermDepth) {
  // 48 bytes that unroll to a 300001-deep Union spine: every statement is
  // shallow, so only the parsed term's depth can bound it. The parser
  // returns a diagnostic and drops the spine without recursing.
  const std::string Src = "for (i = [0:300000]) translate([i,0,0]) cube(1);";
  ASSERT_EQ(Src.size(), 48u);
  ScadResult R = parseScad(Src);
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos)
      << R.Error;
  // The bound is on depth: a spine under the limit parses.
  ScadResult Ok = parseScad("for (i = [0:899]) translate([i,0,0]) cube(1);");
  ASSERT_TRUE(Ok) << Ok.Error;
  EXPECT_EQ(termPrimitives(Ok.Value), 900u);
}

TEST(ScadParseTest, RangeLiteralsAreBounded) {
  // A step below the start's ulp never reaches the end: 24 bytes used to
  // grow the range until allocation failed.
  for (const char *Src : {"for (i=[1e20:1:1e20]) {}",
                          "for (i=[0:3e9]) cube(1);"}) {
    ScadResult R = parseScad(Src);
    ASSERT_FALSE(R) << Src;
    EXPECT_NE(R.Error.find("range longer than"), std::string::npos)
        << R.Error;
  }
  // A bound that is not a number is a diagnostic, not an empty error.
  ScadResult R = parseScad("for (i=[0:[1:2]]) cube(1);");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("range bounds must be numbers"), std::string::npos)
      << R.Error;
}

TEST(ScadParseTest, LoopUnrollingIsBounded) {
  // Each loop stays under the depth bound, but nesting multiplies the
  // replayed body text: 10^9 iterations from 88 bytes.
  ScadResult R = parseScad("for(i=[0:999]) union() for(j=[0:999]) union() "
                           "for(k=[0:999]) translate([i,j,k]) cube(1);");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("loop unrolling re-parses more than"),
            std::string::npos)
      << R.Error;
  // Empty bodies cost their replay too.
  ScadResult Empty =
      parseScad("for(i=[0:60000]) for(j=[0:60000]) for(k=[0:999]) {}");
  ASSERT_FALSE(Empty);
  EXPECT_NE(Empty.Error.find("loop unrolling re-parses more than"),
            std::string::npos)
      << Empty.Error;
}

TEST(ScadParseTest, GearProgramFlattens) {
  // An OpenSCAD gear rim like the Thingiverse models the paper flattened.
  const char *Src = R"(
    teeth = 12;
    difference() {
      cylinder(h = 10, r = 40);
      cylinder(h = 12, r = 10);
    }
    for (i = [0 : 11])
      rotate([0, 0, 360 * i / teeth])
        translate([42, 0, 0])
          cube([6, 4, 10], center=true);
  )";
  TermPtr T = parseOk(Src);
  EXPECT_TRUE(isFlatCsg(T));
  EXPECT_EQ(termPrimitives(T), 14u);
}

TEST(ScadEmitTest, PrimitivesRoundTripThroughParser) {
  TermPtr Models[] = {
      tUnion(tScale(2, 2, 2, tUnit()), tScale(3, 3, 3, tSphere())),
      tDiff(tScale(10, 10, 4, tCylinder()),
            tTranslate(0, 0, -1, tScale(3, 3, 6, tCylinder()))),
      tTranslate(1, 2, 3, tRotate(0, 0, 30, tScale(4, 4, 4, tHexagon()))),
  };
  for (const TermPtr &M : Models) {
    std::optional<std::string> Src = emitScad(M);
    ASSERT_TRUE(Src.has_value());
    ScadResult Back = parseScad(*Src);
    ASSERT_TRUE(Back) << Back.Error << "\n" << *Src;
    EXPECT_TRUE(geom::sampleEquivalent(M, Back.Value)) << *Src;
  }
}

TEST(ScadEmitTest, MapiBecomesForLoop) {
  // The synthesized gear shape: loops survive the translation.
  ParseResult P = parseSexp(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Rotate (Vec3 0.0 0.0 "
      "(Mul 30 (Var i))) (Var c))) (Repeat (Scale (Vec3 2.0 2.0 2.0) Unit) "
      "12)))");
  ASSERT_TRUE(P) << P.Error;
  std::optional<std::string> Src = emitScad(P.Value);
  ASSERT_TRUE(Src.has_value());
  EXPECT_NE(Src->find("for (i = [0 : 11])"), std::string::npos) << *Src;
  // And the loop form is geometrically equivalent to the flattening.
  ScadResult Back = parseScad(*Src);
  ASSERT_TRUE(Back) << Back.Error << "\n" << *Src;
  EvalResult Flat = evalToFlatCsg(P.Value);
  ASSERT_TRUE(Flat);
  EXPECT_TRUE(geom::sampleEquivalent(Flat.Value, Back.Value));
}

TEST(ScadEmitTest, NestedMapiFusesIntoOneLoop) {
  ParseResult P = parseSexp(
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Translate (Vec3 "
      "(Mul 5 (Var i)) 0.0 0.0) (Var c))) (Mapi (Fun (Var i) (Var c) "
      "(Scale (Vec3 2.0 2.0 2.0) (Var c))) (Repeat Unit 3))))");
  ASSERT_TRUE(P) << P.Error;
  std::optional<std::string> Src = emitScad(P.Value);
  ASSERT_TRUE(Src.has_value());
  ScadResult Back = parseScad(*Src);
  ASSERT_TRUE(Back) << Back.Error << "\n" << *Src;
  EvalResult Flat = evalToFlatCsg(P.Value);
  ASSERT_TRUE(Flat);
  EXPECT_TRUE(geom::sampleEquivalent(Flat.Value, Back.Value)) << *Src;
}

TEST(ScadEmitTest, ExternalBecomesModuleCall) {
  std::optional<std::string> Src =
      emitScad(tUnion(tExternal("hull_grip"), tUnit()));
  ASSERT_TRUE(Src.has_value());
  EXPECT_NE(Src->find("hull_grip();"), std::string::npos);
}

TEST(ScadEmitTest, CountedFoldBecomesForLoop) {
  // Nested-loop output shape (Figure 14).
  ParseResult P = parseSexp(
      "(Fold Union Empty (Fold (Fun (Var i) (Translate (Vec3 (Mul 4 (Var "
      "i)) 0.0 0.0) Unit)) Nil (Cons 0 (Cons 1 (Cons 2 Nil)))))");
  ASSERT_TRUE(P) << P.Error;
  std::optional<std::string> Src = emitScad(P.Value);
  ASSERT_TRUE(Src.has_value());
  EXPECT_NE(Src->find("for (i = [0 : 2])"), std::string::npos) << *Src;
  ScadResult Back = parseScad(*Src);
  ASSERT_TRUE(Back) << Back.Error;
  EvalResult Flat = evalToFlatCsg(P.Value);
  ASSERT_TRUE(Flat);
  EXPECT_TRUE(geom::sampleEquivalent(Flat.Value, Back.Value));
}
