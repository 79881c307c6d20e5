//===-- scad/ScadParser.cpp - Mini-OpenSCAD frontend ----------------------===//

#include "scad/ScadParser.h"

#include "cad/Sexp.h"
#include "linalg/Vec3.h"

#include <cctype>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace shrinkray;
using namespace shrinkray::scad;

namespace {

/// Longest range literal a source may spell. A few bytes of range can name
/// billions of elements (or, with a step below the start's ulp, never
/// reach the end), so longer ones fail with a diagnostic.
constexpr size_t kMaxRangeLength = size_t(1) << 20;

/// Source bytes loop unrolling may re-parse in one parse: every iteration
/// replays its body, so nested loops multiply a short source into
/// unbounded work. Past the budget the parse fails with a diagnostic.
constexpr size_t kUnrollBudgetBytes = size_t(1) << 22;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind {
  Ident,
  Number,
  Punct, // single char: ( ) { } [ ] , ; = : + - * /
  End,
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;
  double Num = 0.0;
  size_t Offset = 0;
};

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) { advance(); }

  const Token &peek() const { return Cur; }

  Token take() {
    Token T = Cur;
    advance();
    return T;
  }

  bool atPunct(char C) const {
    return Cur.Kind == TokKind::Punct && Cur.Text[0] == C;
  }

  bool atIdent(std::string_view S) const {
    return Cur.Kind == TokKind::Ident && Cur.Text == S;
  }

private:
  std::string_view Src;
  size_t Pos = 0;
  Token Cur;

  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
        continue;
      }
      if (C == '/' && Pos + 1 < Src.size() && Src[Pos + 1] == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '/' && Pos + 1 < Src.size() && Src[Pos + 1] == '*') {
        Pos += 2;
        while (Pos + 1 < Src.size() &&
               !(Src[Pos] == '*' && Src[Pos + 1] == '/'))
          ++Pos;
        Pos = std::min(Pos + 2, Src.size());
        continue;
      }
      break;
    }
  }

  void advance() {
    skipTrivia();
    Cur = Token();
    Cur.Offset = Pos;
    if (Pos >= Src.size())
      return;
    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$') {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_' || Src[Pos] == '$'))
        ++Pos;
      Cur.Kind = TokKind::Ident;
      Cur.Text = std::string(Src.substr(Start, Pos - Start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '.' && Pos + 1 < Src.size() &&
         std::isdigit(static_cast<unsigned char>(Src[Pos + 1])))) {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isdigit(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '.' || Src[Pos] == 'e' || Src[Pos] == 'E' ||
              ((Src[Pos] == '+' || Src[Pos] == '-') &&
               (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E'))))
        ++Pos;
      Cur.Kind = TokKind::Number;
      Cur.Text = std::string(Src.substr(Start, Pos - Start));
      Cur.Num = std::strtod(Cur.Text.c_str(), nullptr);
      return;
    }
    Cur.Kind = TokKind::Punct;
    Cur.Text = std::string(1, C);
    ++Pos;
  }
};

//===----------------------------------------------------------------------===//
// Values and environments
//===----------------------------------------------------------------------===//

struct ScadValue {
  enum class Kind { Num, Vec, Bool } K = Kind::Num;
  double Num = 0.0;
  std::vector<double> Vec;
  bool Bool = false;

  static ScadValue number(double D) {
    ScadValue V;
    V.K = Kind::Num;
    V.Num = D;
    return V;
  }
  static ScadValue vec(std::vector<double> Elems) {
    ScadValue V;
    V.K = Kind::Vec;
    V.Vec = std::move(Elems);
    return V;
  }
  static ScadValue boolean(bool B) {
    ScadValue V;
    V.K = Kind::Bool;
    V.Bool = B;
    return V;
  }
};

//===----------------------------------------------------------------------===//
// Parser / evaluator
//===----------------------------------------------------------------------===//

class ScadParserImpl {
public:
  explicit ScadParserImpl(std::string_view Src) : Lex(Src) {}

  ScadResult run() {
    std::vector<TermPtr> Solids;
    while (Lex.peek().Kind != TokKind::End) {
      if (!parseStatement(Solids))
        return {nullptr, Diag};
    }
    // Source nesting is bounded while parsing, but unrolled loops and
    // long statement lists build Union spines as deep as their solid
    // count; downstream walkers recurse per level, so bound the result.
    TermPtr Result = tUnionAll(Solids);
    if (Result->depth() > kMaxSourceDepth) {
      failTooDeep();
      return {nullptr, Diag};
    }
    return {Result, ""};
  }

private:
  Lexer Lex;
  std::string Diag;
  std::map<std::string, ScadValue> Vars;
  int ExternalCount = 0;

  size_t Depth = 0; ///< statements + expressions enclosing the parse point
  size_t UnrollBudget = kUnrollBudgetBytes; ///< source bytes left to replay

  /// Counts one nesting level for its scope. Statements and expressions
  /// recurse once per level, so a source nested past kMaxSourceDepth
  /// fails with a diagnostic instead of overflowing the stack.
  struct Nesting {
    size_t &Depth;
    explicit Nesting(size_t &D) : Depth(++D) {}
    ~Nesting() { --Depth; }
    bool tooDeep() const { return Depth > kMaxSourceDepth; }
  };

  bool failTooDeep() {
    return fail("nesting deeper than " + std::to_string(kMaxSourceDepth));
  }

  bool fail(const std::string &Message) {
    if (Diag.empty()) {
      std::ostringstream Os;
      Os << "offset " << Lex.peek().Offset << ": " << Message;
      Diag = Os.str();
    }
    return false;
  }

  bool expectPunct(char C) {
    if (!Lex.atPunct(C))
      return fail(std::string("expected '") + C + "'");
    Lex.take();
    return true;
  }

  // --- expressions ------------------------------------------------------

  std::optional<ScadValue> parsePrimary() {
    Nesting Level(Depth);
    if (Level.tooDeep()) {
      failTooDeep();
      return std::nullopt;
    }
    const Token &T = Lex.peek();
    if (T.Kind == TokKind::Number) {
      double D = Lex.take().Num;
      return ScadValue::number(D);
    }
    if (T.Kind == TokKind::Ident) {
      std::string Name = Lex.take().Text;
      if (Name == "true")
        return ScadValue::boolean(true);
      if (Name == "false")
        return ScadValue::boolean(false);
      if (Name == "sin" || Name == "cos") {
        if (!expectPunct('('))
          return std::nullopt;
        std::optional<ScadValue> Arg = parseExpr();
        if (!Arg || !expectPunct(')'))
          return std::nullopt;
        if (Arg->K != ScadValue::Kind::Num) {
          fail("trig of a non-number");
          return std::nullopt;
        }
        double R = degToRad(Arg->Num);
        return ScadValue::number(Name == "sin" ? std::sin(R) : std::cos(R));
      }
      auto It = Vars.find(Name);
      if (It == Vars.end()) {
        fail("unknown variable '" + Name + "'");
        return std::nullopt;
      }
      return It->second;
    }
    if (Lex.atPunct('(')) {
      Lex.take();
      std::optional<ScadValue> V = parseExpr();
      if (!V || !expectPunct(')'))
        return std::nullopt;
      return V;
    }
    if (Lex.atPunct('-')) {
      Lex.take();
      std::optional<ScadValue> V = parsePrimary();
      if (!V)
        return std::nullopt;
      if (V->K == ScadValue::Kind::Num)
        return ScadValue::number(-V->Num);
      if (V->K == ScadValue::Kind::Vec) {
        for (double &D : V->Vec)
          D = -D;
        return V;
      }
      fail("cannot negate a boolean");
      return std::nullopt;
    }
    if (Lex.atPunct('[')) {
      Lex.take();
      std::vector<double> Elems;
      while (!Lex.atPunct(']')) {
        std::optional<ScadValue> V = parseExpr();
        if (!V)
          return std::nullopt;
        if (V->K != ScadValue::Kind::Num) {
          fail("vector elements must be numbers");
          return std::nullopt;
        }
        Elems.push_back(V->Num);
        if (Lex.atPunct(','))
          Lex.take();
        else if (Lex.atPunct(':')) {
          // A range literal [start : end] or [start : step : end].
          Lex.take();
          auto rangeBound = [&]() -> std::optional<ScadValue> {
            std::optional<ScadValue> V = parseExpr();
            if (V && V->K != ScadValue::Kind::Num) {
              fail("range bounds must be numbers");
              return std::nullopt;
            }
            return V;
          };
          std::optional<ScadValue> B = rangeBound();
          if (!B)
            return std::nullopt;
          double Step = 1.0, End;
          if (Lex.atPunct(':')) {
            Lex.take();
            std::optional<ScadValue> C = rangeBound();
            if (!C)
              return std::nullopt;
            Step = B->Num;
            End = C->Num;
          } else {
            End = B->Num;
          }
          if (!expectPunct(']'))
            return std::nullopt;
          std::vector<double> Range;
          if (Step > 0)
            for (double X = Elems[0]; X <= End + 1e-9; X += Step) {
              if (Range.size() == kMaxRangeLength) {
                fail("range longer than " + std::to_string(kMaxRangeLength) +
                     " elements");
                return std::nullopt;
              }
              Range.push_back(X);
            }
          return ScadValue::vec(std::move(Range));
        }
      }
      Lex.take(); // ']'
      return ScadValue::vec(std::move(Elems));
    }
    fail("expected an expression");
    return std::nullopt;
  }

  std::optional<ScadValue> parseTermExpr() {
    std::optional<ScadValue> Lhs = parsePrimary();
    if (!Lhs)
      return std::nullopt;
    while (Lex.atPunct('*') || Lex.atPunct('/')) {
      char Op = Lex.take().Text[0];
      std::optional<ScadValue> Rhs = parsePrimary();
      if (!Rhs)
        return std::nullopt;
      if (Lhs->K != ScadValue::Kind::Num || Rhs->K != ScadValue::Kind::Num) {
        fail("arithmetic on non-numbers");
        return std::nullopt;
      }
      if (Op == '/' && Rhs->Num == 0.0) {
        fail("division by zero");
        return std::nullopt;
      }
      Lhs = ScadValue::number(Op == '*' ? Lhs->Num * Rhs->Num
                                        : Lhs->Num / Rhs->Num);
    }
    return Lhs;
  }

  std::optional<ScadValue> parseExpr() {
    std::optional<ScadValue> Lhs = parseTermExpr();
    if (!Lhs)
      return std::nullopt;
    while (Lex.atPunct('+') || Lex.atPunct('-')) {
      char Op = Lex.take().Text[0];
      std::optional<ScadValue> Rhs = parseTermExpr();
      if (!Rhs)
        return std::nullopt;
      if (Lhs->K != ScadValue::Kind::Num || Rhs->K != ScadValue::Kind::Num) {
        fail("arithmetic on non-numbers");
        return std::nullopt;
      }
      Lhs = ScadValue::number(Op == '+' ? Lhs->Num + Rhs->Num
                                        : Lhs->Num - Rhs->Num);
    }
    return Lhs;
  }

  // --- module arguments ----------------------------------------------------

  struct Args {
    std::vector<ScadValue> Positional;
    std::map<std::string, ScadValue> Named;

    const ScadValue *named(const std::string &Name) const {
      auto It = Named.find(Name);
      return It == Named.end() ? nullptr : &It->second;
    }
  };

  std::optional<Args> parseArgs() {
    Args Out;
    if (!expectPunct('('))
      return std::nullopt;
    while (!Lex.atPunct(')')) {
      // Named argument: ident '=' expr (lookahead on '=').
      if (Lex.peek().Kind == TokKind::Ident) {
        Lexer Save = Lex; // cheap copy: lexer is a view + offsets
        std::string Name = Lex.take().Text;
        if (Lex.atPunct('=')) {
          Lex.take();
          std::optional<ScadValue> V = parseExpr();
          if (!V)
            return std::nullopt;
          Out.Named.emplace(Name, *V);
          if (Lex.atPunct(','))
            Lex.take();
          continue;
        }
        Lex = Save; // not named; reparse as expression
      }
      std::optional<ScadValue> V = parseExpr();
      if (!V)
        return std::nullopt;
      Out.Positional.push_back(*V);
      if (Lex.atPunct(','))
        Lex.take();
    }
    Lex.take(); // ')'
    return Out;
  }

  // --- statements -------------------------------------------------------

  /// Parses the child of a transform/boolean: `;`, one statement, or a
  /// block; children are implicitly unioned.
  bool parseChildren(std::vector<TermPtr> &Out) {
    if (Lex.atPunct(';')) {
      Lex.take();
      return true;
    }
    if (Lex.atPunct('{')) {
      Lex.take();
      while (!Lex.atPunct('}')) {
        if (Lex.peek().Kind == TokKind::End)
          return fail("unterminated '{'");
        if (!parseStatement(Out))
          return false;
      }
      Lex.take();
      return true;
    }
    return parseStatement(Out);
  }

  bool parseStatement(std::vector<TermPtr> &Out) {
    Nesting Level(Depth);
    if (Level.tooDeep())
      return failTooDeep();
    if (Lex.atPunct(';')) { // stray semicolon
      Lex.take();
      return true;
    }
    if (Lex.atPunct('{')) // bare block
      return parseChildren(Out);
    if (Lex.peek().Kind != TokKind::Ident)
      return fail("expected a statement");

    // Assignment lookahead.
    {
      Lexer Save = Lex;
      std::string Name = Lex.take().Text;
      if (Lex.atPunct('=')) {
        Lex.take();
        std::optional<ScadValue> V = parseExpr();
        if (!V)
          return false;
        if (!expectPunct(';'))
          return false;
        Vars[Name] = *V;
        return true;
      }
      Lex = Save;
    }

    std::string Name = Lex.take().Text;
    if (Name == "for")
      return parseFor(Out);

    std::optional<Args> A = parseArgs();
    if (!A)
      return false;

    if (Name == "cube")
      return makeCube(*A, Out);
    if (Name == "cylinder")
      return makeCylinder(*A, Out);
    if (Name == "sphere")
      return makeSphere(*A, Out);

    if (Name == "translate" || Name == "scale" || Name == "rotate") {
      std::vector<TermPtr> Kids;
      if (!parseChildren(Kids))
        return false;
      TermPtr Child = tUnionAll(Kids);
      Vec3 V;
      if (!vectorArg(*A, Name == "scale" ? 1.0 : 0.0, V))
        return false;
      OpKind K = Name == "translate" ? OpKind::Translate
                 : Name == "scale"   ? OpKind::Scale
                                     : OpKind::Rotate;
      Out.push_back(makeTerm(Op(K), {tVec3(V.X, V.Y, V.Z), Child}));
      return true;
    }

    if (Name == "hull" || Name == "mirror" || Name == "minkowski") {
      // Unsupported geometric features become opaque External leaves, the
      // paper's preprocessing for 3044766:sander and 1725308:soldering
      // ("we replaced the Hull subexpression with an External keyword").
      std::vector<TermPtr> Kids;
      if (!parseChildren(Kids))
        return false;
      Out.push_back(tExternal(Name + "_" + std::to_string(++ExternalCount)));
      return true;
    }

    if (Name == "union" || Name == "difference" || Name == "intersection") {
      std::vector<TermPtr> Kids;
      if (!parseChildren(Kids))
        return false;
      if (Name == "union") {
        Out.push_back(tUnionAll(Kids));
      } else if (Kids.empty()) {
        Out.push_back(tEmpty());
      } else if (Name == "difference") {
        std::vector<TermPtr> Rest(Kids.begin() + 1, Kids.end());
        Out.push_back(Rest.empty() ? Kids[0]
                                   : tDiff(Kids[0], tUnionAll(Rest)));
      } else {
        TermPtr Acc = Kids[0];
        for (size_t I = 1; I < Kids.size(); ++I)
          Acc = tInter(Acc, Kids[I]);
        Out.push_back(Acc);
      }
      return true;
    }

    return fail("unsupported module '" + Name + "'");
  }

  bool parseFor(std::vector<TermPtr> &Out) {
    if (!expectPunct('('))
      return false;
    if (Lex.peek().Kind != TokKind::Ident)
      return fail("expected a loop variable");
    std::string Var = Lex.take().Text;
    if (!expectPunct('='))
      return false;
    std::optional<ScadValue> Iter = parseExpr();
    if (!Iter)
      return false;
    if (!expectPunct(')'))
      return false;
    if (Iter->K != ScadValue::Kind::Vec)
      return fail("for expects a range or vector");

    // Snapshot the body once, replay it per iteration (loop unrolling —
    // this is the paper's flattening).
    Lexer BodyStart = Lex;
    bool SavedHadVar = Vars.count(Var) > 0;
    ScadValue SavedVal = SavedHadVar ? Vars[Var] : ScadValue::number(0);
    for (double X : Iter->Vec) {
      Lex = BodyStart;
      Vars[Var] = ScadValue::number(X);
      if (!parseChildren(Out))
        return false;
      // Out's solids end up in one Union spine at least as deep as their
      // count, which run() would reject anyway: stop unrolling now.
      if (Out.size() > kMaxSourceDepth)
        return failTooDeep();
      const size_t Replayed = Lex.peek().Offset - BodyStart.peek().Offset + 1;
      if (Replayed > UnrollBudget)
        return fail("loop unrolling re-parses more than " +
                    std::to_string(kUnrollBudgetBytes) + " bytes");
      UnrollBudget -= Replayed;
    }
    if (Iter->Vec.empty()) { // still must consume the body
      Lex = BodyStart;
      std::vector<TermPtr> Discard;
      Vars[Var] = ScadValue::number(0);
      if (!parseChildren(Discard))
        return false;
    }
    if (SavedHadVar)
      Vars[Var] = SavedVal;
    else
      Vars.erase(Var);
    return true;
  }

  // --- primitive construction ------------------------------------------------

  bool vectorArg(const Args &A, double Default, Vec3 &Out) {
    const ScadValue *V =
        A.Positional.empty() ? A.named("v") : &A.Positional[0];
    if (!V) {
      Out = {Default, Default, Default};
      return true;
    }
    if (V->K == ScadValue::Kind::Num) { // rotate(45) rotates about z
      Out = {Default, Default, V->Num};
      return true;
    }
    if (V->K != ScadValue::Kind::Vec || V->Vec.size() != 3)
      return fail("expected a 3-vector argument");
    Out = {V->Vec[0], V->Vec[1], V->Vec[2]};
    return true;
  }

  static bool centered(const Args &A) {
    const ScadValue *C = A.named("center");
    return C && ((C->K == ScadValue::Kind::Bool && C->Bool) ||
                 (C->K == ScadValue::Kind::Num && C->Num != 0.0));
  }

  bool makeCube(const Args &A, std::vector<TermPtr> &Out) {
    Vec3 Size{1, 1, 1};
    const ScadValue *S =
        A.Positional.empty() ? A.named("size") : &A.Positional[0];
    if (S) {
      if (S->K == ScadValue::Kind::Num)
        Size = {S->Num, S->Num, S->Num};
      else if (S->K == ScadValue::Kind::Vec && S->Vec.size() == 3)
        Size = {S->Vec[0], S->Vec[1], S->Vec[2]};
      else
        return fail("bad cube size");
    }
    TermPtr T = tScale(Size.X, Size.Y, Size.Z, tUnit());
    if (centered(A))
      T = tTranslate(-Size.X / 2, -Size.Y / 2, -Size.Z / 2, T);
    if (!expectPunct(';'))
      return false;
    Out.push_back(T);
    return true;
  }

  bool makeCylinder(const Args &A, std::vector<TermPtr> &Out) {
    double H = 1.0, R = 1.0;
    bool Hexagonal = false;
    if (const ScadValue *V = A.named("h"); V && V->K == ScadValue::Kind::Num)
      H = V->Num;
    else if (!A.Positional.empty() &&
             A.Positional[0].K == ScadValue::Kind::Num)
      H = A.Positional[0].Num;
    if (const ScadValue *V = A.named("r"); V && V->K == ScadValue::Kind::Num)
      R = V->Num;
    else if (A.Positional.size() > 1 &&
             A.Positional[1].K == ScadValue::Kind::Num)
      R = A.Positional[1].Num;
    if (const ScadValue *V = A.named("$fn");
        V && V->K == ScadValue::Kind::Num && V->Num == 6.0)
      Hexagonal = true; // the OpenSCAD idiom for hexagonal prisms
    TermPtr T = tScale(R, R, H, Hexagonal ? tHexagon() : tCylinder());
    if (centered(A))
      T = tTranslate(0, 0, -H / 2, T);
    if (!expectPunct(';'))
      return false;
    Out.push_back(T);
    return true;
  }

  bool makeSphere(const Args &A, std::vector<TermPtr> &Out) {
    double R = 1.0;
    if (const ScadValue *V = A.named("r"); V && V->K == ScadValue::Kind::Num)
      R = V->Num;
    else if (!A.Positional.empty() &&
             A.Positional[0].K == ScadValue::Kind::Num)
      R = A.Positional[0].Num;
    if (!expectPunct(';'))
      return false;
    Out.push_back(tScale(R, R, R, tSphere()));
    return true;
  }
};

} // namespace

ScadResult scad::parseScad(std::string_view Source) {
  ScadParserImpl P(Source);
  ScadResult R = P.run();
  assert((!R.Value || isFlatCsg(R.Value)) && "frontend must emit flat CSG");
  return R;
}
