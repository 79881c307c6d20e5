//===-- tests/sexp_test.cpp - S-expression reader/printer tests -----------===//

#include "cad/Sexp.h"

#include <gtest/gtest.h>

using namespace shrinkray;

namespace {

/// Parses, asserting success.
TermPtr parseOk(std::string_view Text) {
  ParseResult R = parseSexp(Text);
  EXPECT_TRUE(R) << R.Error;
  return R.Value;
}

} // namespace

TEST(SexpParseTest, Primitives) {
  EXPECT_EQ(parseOk("Unit")->kind(), OpKind::Unit);
  EXPECT_EQ(parseOk("Empty")->kind(), OpKind::Empty);
  EXPECT_EQ(parseOk("Sphere")->kind(), OpKind::Sphere);
  EXPECT_EQ(parseOk("Nil")->kind(), OpKind::Nil);
}

TEST(SexpParseTest, NumberLiterals) {
  EXPECT_EQ(parseOk("42")->op().intValue(), 42);
  EXPECT_EQ(parseOk("-7")->op().intValue(), -7);
  EXPECT_DOUBLE_EQ(parseOk("2.5")->op().floatValue(), 2.5);
  EXPECT_DOUBLE_EQ(parseOk("-0.125")->op().floatValue(), -0.125);
  EXPECT_DOUBLE_EQ(parseOk("1e3")->op().floatValue(), 1000.0);
}

TEST(SexpParseTest, AffineAndBoolean) {
  TermPtr T = parseOk("(Union (Translate (Vec3 1.0 2.0 3.0) Unit) Sphere)");
  ASSERT_EQ(T->kind(), OpKind::Union);
  ASSERT_EQ(T->child(0)->kind(), OpKind::Translate);
  EXPECT_DOUBLE_EQ(
      T->child(0)->child(0)->child(1)->op().floatValue(), 2.0);
}

TEST(SexpParseTest, BareBoolOpIsOpRef) {
  TermPtr T = parseOk("(Fold Union Empty Nil)");
  ASSERT_EQ(T->kind(), OpKind::Fold);
  ASSERT_EQ(T->child(0)->kind(), OpKind::OpRef);
  EXPECT_EQ(T->child(0)->op().referencedOp(), OpKind::Union);
}

TEST(SexpParseTest, VarAndExternal) {
  TermPtr V = parseOk("(Var i)");
  ASSERT_EQ(V->kind(), OpKind::Var);
  EXPECT_EQ(V->op().symbol().str(), "i");
  TermPtr E = parseOk("(External tooth)");
  ASSERT_EQ(E->kind(), OpKind::External);
  EXPECT_EQ(E->op().symbol().str(), "tooth");
}

TEST(SexpParseTest, PatternVariables) {
  TermPtr T = parseOk("(Union ?a ?a)");
  EXPECT_EQ(T->child(0)->kind(), OpKind::PatVar);
  EXPECT_EQ(T->child(0)->op().symbol().str(), "a");
}

TEST(SexpParseTest, FunAndApp) {
  TermPtr T = parseOk("(Fun (Var i) (Var c) (Translate (Vec3 (Var i) 0.0 "
                      "0.0) (Var c)))");
  ASSERT_EQ(T->kind(), OpKind::Fun);
  EXPECT_EQ(T->numChildren(), 3u);
}

TEST(SexpParseTest, Comments) {
  TermPtr T = parseOk("; a gear model\n(Union Unit Sphere) ; trailing");
  EXPECT_EQ(T->kind(), OpKind::Union);
}

TEST(SexpParseTest, Errors) {
  EXPECT_FALSE(parseSexp(""));
  EXPECT_FALSE(parseSexp("(Union Unit)"));          // arity
  EXPECT_FALSE(parseSexp("(Unknown 1 2)"));         // unknown op
  EXPECT_FALSE(parseSexp("(Union Unit Sphere"));    // unterminated
  EXPECT_FALSE(parseSexp("(Union Unit Sphere) x")); // trailing
  EXPECT_FALSE(parseSexp("frobnicate"));            // unknown atom
  EXPECT_FALSE(parseSexp("(Fun (Var i))"));         // Fun needs body
  EXPECT_FALSE(parseSexp("?"));                     // empty patvar
}

namespace {

/// \p N nested binary Unions around Unit leaves: a term of depth N + 1.
std::string nestedUnions(size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I)
    S += "(Union ";
  S += "Unit";
  for (size_t I = 0; I < N; ++I)
    S += " Unit)";
  return S;
}

} // namespace

TEST(SexpParseTest, NestingIsBoundedByMaxSourceDepth) {
  EXPECT_EQ(parseOk(nestedUnions(63))->depth(), 64u);
  EXPECT_EQ(parseOk(nestedUnions(kMaxSourceDepth - 1))->depth(),
            kMaxSourceDepth);
  for (size_t N : {kMaxSourceDepth, size_t(20000)}) {
    ParseResult R = parseSexp(nestedUnions(N));
    ASSERT_FALSE(R) << N;
    EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos)
        << R.Error;
  }
}

TEST(SexpParseTest, ErrorMessagesCarryOffset) {
  ParseResult R = parseSexp("(Union Unit Schmid)");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("offset"), std::string::npos);
  EXPECT_NE(R.Error.find("Schmid"), std::string::npos);
}

TEST(SexpPrintTest, RoundTripSimple) {
  const char *Cases[] = {
      "Unit",
      "(Union Unit Sphere)",
      "(Translate (Vec3 1.0 2.0 3.0) Unit)",
      "(Fold Union Empty (Cons Unit (Cons Sphere Nil)))",
      "(Mapi (Fun (Var i) (Var c) (Rotate (Vec3 0.0 0.0 (Mul 6.0 (Var i))) "
      "(Var c))) (Repeat Unit 5))",
      "(External hull-part)",
      "(Diff (Scale (Vec3 2.0 2.0 1.0) Cylinder) Hexagon)",
      "(Arctan 1.0 2.0)",
  };
  for (const char *Text : Cases) {
    TermPtr T = parseOk(Text);
    TermPtr Back = parseOk(printSexp(T));
    EXPECT_TRUE(termEquals(T, Back)) << Text;
  }
}

TEST(SexpPrintTest, FloatFormatDistinguishesFromInt) {
  EXPECT_EQ(printSexp(tFloat(2.0)), "2.0");
  EXPECT_EQ(printSexp(tInt(2)), "2");
}

TEST(SexpPrintTest, FloatRoundTripsExactly) {
  double Values[] = {0.1,    1.0 / 3.0,          2.5e-10, 1234567.891,
                     -0.001, 3.141592653589793,  1e20};
  for (double V : Values) {
    TermPtr Back = parseOk(printSexp(tFloat(V)));
    EXPECT_EQ(Back->op().floatValue(), V) << V;
  }
}

TEST(SexpPrintTest, RoundTripPatternVars) {
  TermPtr T = parseOk("(Union ?x ?y)");
  EXPECT_TRUE(termEquals(T, parseOk(printSexp(T))));
}

TEST(PrettyPrintTest, AffineFlattensVector) {
  std::string S = prettyPrint(tTranslate(1, 2, 3, tUnit()));
  EXPECT_EQ(S, "Translate (1, 2, 3, Unit)");
}

TEST(PrettyPrintTest, ArithmeticInfix) {
  std::string S =
      prettyPrint(tAdd(tMul(tInt(2), tVar("i")), tInt(1)));
  EXPECT_EQ(S, "((2 * i) + 1)");
}

TEST(PrettyPrintTest, FunArrowSyntax) {
  TermPtr F = tFun({tVar("i"), tVar("c"), tVar("c")});
  EXPECT_EQ(prettyPrint(F), "Fun (i, c) -> c");
}

TEST(PrettyPrintTest, LargeTermsIndent) {
  TermPtr T = tUnion(tTranslate(1, 2, 3, tUnit()),
                     tTranslate(4, 5, 6, tSphere()));
  std::string S = prettyPrint(T);
  EXPECT_NE(S.find('\n'), std::string::npos);
  EXPECT_NE(S.find("Translate (1, 2, 3, Unit)"), std::string::npos);
}
