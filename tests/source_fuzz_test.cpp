//===-- tests/source_fuzz_test.cpp - Source-text mutation fuzzing ---------===//
//
// Deterministic LCG mutation sweeps over the two source languages a
// network peer can send: s-expressions and OpenSCAD text. Every mutant
// runs the front end a served job runs — parseSexp or scad::parseScad,
// then evalToFlatCsg, isFlatCsg and printSexp — and must either stop at
// a diagnostic or round-trip: the printed flat CSG re-parses to the same
// term and prints the same text. Reaching the next round is the
// never-crash assertion; CI runs this suite under ASan/UBSan.
//
//===----------------------------------------------------------------------===//

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "scad/ScadParser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace shrinkray;

namespace {

/// Deterministic LCG (MMIX constants), as in server_protocol_test:
/// reproducible across platforms, no <random> seeding variance.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

/// Bytes a mutation inserts or flips to: half the time one of the
/// languages' own tokens, so mutants stay close enough to parse and reach
/// the evaluator; otherwise any byte.
char mutantByte(Lcg &Rng) {
  static const char Alphabet[] = "()[]{},;:=-+*/. 0123456789eE\n";
  if (Rng.below(2))
    return Alphabet[Rng.below(sizeof Alphabet - 1)];
  return static_cast<char>(static_cast<unsigned char>(Rng.next() & 0xff));
}

/// One mutation: flip/insert/delete/duplicate a span/truncate.
std::string mutate(std::string Text, Lcg &Rng) {
  if (Text.empty())
    return Text;
  const size_t At = Rng.below(Text.size());
  switch (Rng.below(5)) {
  case 0:
    Text[At] = mutantByte(Rng);
    break;
  case 1:
    Text.insert(Text.begin() + static_cast<long>(At), mutantByte(Rng));
    break;
  case 2:
    Text.erase(Text.begin() + static_cast<long>(At));
    break;
  case 3: // duplicate a short span in place: repeats tokens and nesting
    Text.insert(At, Text.substr(At, 1 + Rng.below(16)));
    break;
  default:
    Text.resize(At);
    break;
  }
  return Text;
}

/// What a sweep saw: how far mutants got through the front end.
struct SweepCounts {
  size_t Parsed = 0;
  size_t Flattened = 0;
};

/// The contract past the parser: evalToFlatCsg returns a diagnostic or
/// flat CSG, and flat CSG round-trips through printSexp/parseSexp.
void checkFlattenAndRoundTrip(const TermPtr &Parsed, const std::string &Src,
                              SweepCounts &Counts) {
  EvalResult E = evalToFlatCsg(Parsed);
  if (!E) {
    EXPECT_FALSE(E.Error.empty()) << Src;
    return;
  }
  ++Counts.Flattened;
  ASSERT_TRUE(isFlatCsg(E.Value)) << Src;
  const std::string Printed = printSexp(E.Value);
  ParseResult Back = parseSexp(Printed);
  ASSERT_TRUE(Back) << "printed flat CSG does not re-parse: " << Printed
                    << " (" << Back.Error << ") from " << Src;
  EXPECT_TRUE(termEquals(Back.Value, E.Value)) << Printed;
  EXPECT_EQ(printSexp(Back.Value), Printed);
}

const std::vector<std::string> &sexpCorpus() {
  static const std::vector<std::string> Corpus = {
      "(Union (Translate (Vec3 1 2 3) Unit) (Union (Translate (Vec3 1 2 3) "
      "Unit) (Translate (Vec3 1 2 3) Unit)))",
      "(Diff (Scale (Vec3 2.0 2.0 1.0) Cylinder) (Inter Hexagon Sphere))",
      "(Fold Union Empty (Repeat Unit 3))",
      "(Fold Union Empty (Cons Unit (Cons Sphere Nil)))",
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Translate "
      "(Vec3 (Mul 2.0 (Add (Var i) 1)) 0.0 0.0) (Var c))) (Repeat Unit 5)))",
      "(Fold Union Empty (Mapi (Fun (Var i) (Var c) (Rotate (Vec3 0.0 0.0 "
      "(Mul 60.0 (Var i))) (Translate (Vec3 8 0 0) (Var c)))) "
      "(Repeat Cylinder 6)))",
      "(Translate (Vec3 (Div 1.0 4.0) (Sub 0 2) (Arctan 1.0 2.0)) "
      "(External hull-part))",
  };
  return Corpus;
}

const std::vector<std::string> &scadCorpus() {
  static const std::vector<std::string> Corpus = {
      "for (i = [0:3])\n  translate([i * 2, 0, 0])\n    cube(1);\n",
      "for (a = [0 : 60 : 300])\n  rotate([0, 0, a])\n    translate([8, 0, "
      "0])\n      cylinder(h = 3, r = 1);\n",
      "for (x = [0 : 2])\n  for (z = [0 : 1])\n    translate([x * 5, 0, z * "
      "4])\n      cube([4, 3, 3]);\n",
      "difference() {\n  cube([10, 10, 2], center = true);\n  union() {\n"
      "    sphere(r = 2);\n    scale([2, 1, 1]) cylinder(h = 4, r = 1);\n"
      "  }\n}\nintersection() { cube(3); sphere(2); }\n",
  };
  return Corpus;
}

constexpr size_t kRounds = 3000;

} // namespace

TEST(SexpSourceFuzz, MutantsDiagnoseOrRoundTrip) {
  Lcg Rng(0x5e4b5eedULL);
  SweepCounts Counts;
  for (size_t Round = 0; Round < kRounds; ++Round) {
    std::string Src = sexpCorpus()[Rng.below(sexpCorpus().size())];
    const size_t Mutations = 1 + Rng.below(4);
    for (size_t I = 0; I < Mutations; ++I)
      Src = mutate(std::move(Src), Rng);

    ParseResult P = parseSexp(Src);
    if (!P) {
      EXPECT_FALSE(P.Error.empty()) << Src;
      continue;
    }
    ++Counts.Parsed;
    checkFlattenAndRoundTrip(P.Value, Src, Counts);
  }
  // The sweep must reach every stage, not collapse into parse errors.
  EXPECT_GT(Counts.Flattened, 0u);
  EXPECT_LT(Counts.Parsed, kRounds);
}

TEST(ScadSourceFuzz, MutantsDiagnoseOrRoundTrip) {
  Lcg Rng(0x5cad5eedULL);
  SweepCounts Counts;
  for (size_t Round = 0; Round < kRounds; ++Round) {
    std::string Src = scadCorpus()[Rng.below(scadCorpus().size())];
    const size_t Mutations = 1 + Rng.below(4);
    for (size_t I = 0; I < Mutations; ++I)
      Src = mutate(std::move(Src), Rng);

    scad::ScadResult P = scad::parseScad(Src);
    if (!P) {
      EXPECT_FALSE(P.Error.empty()) << Src;
      continue;
    }
    ++Counts.Parsed;
    checkFlattenAndRoundTrip(P.Value, Src, Counts);
  }
  EXPECT_GT(Counts.Flattened, 0u);
  EXPECT_LT(Counts.Parsed, kRounds);
}

TEST(SourceFuzz, RandomBytesNeverCrashTheParsers) {
  Lcg Rng(0xbadc0de5ULL);
  for (size_t Round = 0; Round < 1000; ++Round) {
    std::string Junk;
    const size_t Len = Rng.below(64);
    for (size_t I = 0; I < Len; ++I)
      Junk.push_back(mutantByte(Rng));
    SweepCounts Ignored;
    if (ParseResult P = parseSexp(Junk))
      checkFlattenAndRoundTrip(P.Value, Junk, Ignored);
    if (scad::ScadResult P = scad::parseScad(Junk))
      checkFlattenAndRoundTrip(P.Value, Junk, Ignored);
  }
}
