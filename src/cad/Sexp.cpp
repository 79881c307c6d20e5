//===-- cad/Sexp.cpp - S-expression serialization -------------------------===//

#include "cad/Sexp.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string shrinkray::formatFloat(double Value) {
  // Try increasing precision until the representation round-trips.
  char Buf[64];
  for (int Precision = 1; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, Value);
    double Back = 0.0;
    std::sscanf(Buf, "%lf", &Back);
    if (Back == Value)
      break;
  }
  std::string S(Buf);
  // Ensure the token is lexed back as a Float, not an Int.
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos &&
      S.find("inf") == std::string::npos && S.find("nan") == std::string::npos)
    S += ".0";
  return S;
}

static void printRec(const TermPtr &T, std::ostringstream &Os) {
  const Op &O = T->op();
  switch (O.kind()) {
  case OpKind::Int:
    Os << O.intValue();
    return;
  case OpKind::Float:
    Os << formatFloat(O.floatValue());
    return;
  case OpKind::OpRef:
    Os << O.symbol().str();
    return;
  case OpKind::PatVar:
    Os << '?' << O.symbol().str();
    return;
  case OpKind::Var:
    Os << "(Var " << O.symbol().str() << ')';
    return;
  case OpKind::External:
    Os << "(External " << O.symbol().str() << ')';
    return;
  default:
    break;
  }
  if (T->numChildren() == 0) {
    Os << opName(O.kind());
    return;
  }
  Os << '(' << opName(O.kind());
  for (const TermPtr &Kid : T->children()) {
    Os << ' ';
    printRec(Kid, Os);
  }
  Os << ')';
}

std::string shrinkray::printSexp(const TermPtr &T) {
  std::ostringstream Os;
  printRec(T, Os);
  return Os.str();
}

//===----------------------------------------------------------------------===//
// Pretty printing (paper style)
//===----------------------------------------------------------------------===//

namespace {

/// Prints terms in the OCaml-flavored surface syntax the paper's figures use.
class PrettyPrinter {
public:
  std::string print(const TermPtr &T) {
    Os.str("");
    rec(T, 0);
    return Os.str();
  }

private:
  std::ostringstream Os;

  static bool isSmall(const TermPtr &T) { return termSize(T) <= 8; }

  void indent(int Depth) {
    Os << '\n';
    for (int I = 0; I < Depth; ++I)
      Os << "  ";
  }

  /// Prints an affine op's vector components inline: "1, 2, 3".
  void vecComponents(const TermPtr &Vec, int Depth) {
    assert(Vec->kind() == OpKind::Vec3Ctor && "expected a Vec3");
    for (size_t I = 0; I < 3; ++I) {
      if (I > 0)
        Os << ", ";
      rec(Vec->child(I), Depth);
    }
  }

  void rec(const TermPtr &T, int Depth) {
    const Op &O = T->op();
    switch (O.kind()) {
    case OpKind::Int:
      Os << O.intValue();
      return;
    case OpKind::Float: {
      // Figures print e.g. "125" for 125.0; keep that readable style.
      double V = O.floatValue();
      if (V == std::floor(V) && std::fabs(V) < 1e15)
        Os << static_cast<long long>(V);
      else
        Os << formatFloat(V);
      return;
    }
    case OpKind::Var:
      Os << O.symbol().str();
      return;
    case OpKind::External:
      Os << O.symbol().str();
      return;
    case OpKind::OpRef:
      Os << O.symbol().str();
      return;
    case OpKind::PatVar:
      Os << '?' << O.symbol().str();
      return;
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Div: {
      const char *Sym = O.kind() == OpKind::Add   ? " + "
                        : O.kind() == OpKind::Sub ? " - "
                        : O.kind() == OpKind::Mul ? " * "
                                                  : " / ";
      Os << '(';
      rec(T->child(0), Depth);
      Os << Sym;
      rec(T->child(1), Depth);
      Os << ')';
      return;
    }
    case OpKind::Fun: {
      Os << "Fun (";
      for (size_t I = 0; I + 1 < T->numChildren(); ++I) {
        if (I > 0)
          Os << ", ";
        rec(T->child(I), Depth);
      }
      Os << ") -> ";
      rec(T->child(T->numChildren() - 1), Depth + 1);
      return;
    }
    default:
      break;
    }

    if (T->numChildren() == 0) {
      Os << opName(O.kind());
      return;
    }

    Os << opName(O.kind()) << " (";
    bool Multiline = !isSmall(T);
    bool FirstArg = true;
    auto arg = [&](auto Emit) {
      if (!FirstArg)
        Os << ',';
      if (Multiline && !FirstArg)
        indent(Depth + 1);
      else if (!FirstArg)
        Os << ' ';
      FirstArg = false;
      Emit();
    };

    if (isAffineOp(O.kind()) && T->child(0)->kind() == OpKind::Vec3Ctor) {
      // Affine ops flatten their vector: Translate (1, 2, 3, child).
      arg([&] { vecComponents(T->child(0), Depth + 1); });
      arg([&] { rec(T->child(1), Depth + 1); });
    } else {
      for (const TermPtr &Kid : T->children())
        arg([&] { rec(Kid, Depth + 1); });
    }
    Os << ')';
  }
};

} // namespace

std::string shrinkray::prettyPrint(const TermPtr &T) {
  PrettyPrinter Printer;
  return Printer.print(T);
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    TermPtr T = parseTerm();
    if (!T)
      return {nullptr, Diag};
    skipWs();
    if (Pos != Text.size())
      return {nullptr, errorAt("trailing characters after term")};
    return {T, ""};
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  size_t Depth = 1; ///< nesting level of the term being parsed (1 = top)
  std::string Diag;

  std::string errorAt(std::string_view Message) {
    std::ostringstream Os;
    Os << "offset " << Pos << ": " << Message;
    return Os.str();
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
        continue;
      }
      if (C == ';') { // comment to end of line
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  bool atEnd() {
    skipWs();
    return Pos == Text.size();
  }

  std::string_view lexAtom() {
    size_t Start = Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isspace(static_cast<unsigned char>(C)) || C == '(' ||
          C == ')' || C == ';')
        break;
      ++Pos;
    }
    return Text.substr(Start, Pos - Start);
  }

  static bool looksNumeric(std::string_view S) {
    if (S.empty())
      return false;
    char C = S[0];
    if (std::isdigit(static_cast<unsigned char>(C)))
      return true;
    return (C == '-' || C == '+' || C == '.') && S.size() > 1 &&
           (std::isdigit(static_cast<unsigned char>(S[1])) || S[1] == '.');
  }

  TermPtr parseNumber(std::string_view Atom) {
    bool IsFloat = Atom.find('.') != std::string_view::npos ||
                   Atom.find('e') != std::string_view::npos ||
                   Atom.find('E') != std::string_view::npos;
    if (IsFloat) {
      double Value = 0.0;
      auto [End, Ec] =
          std::from_chars(Atom.data(), Atom.data() + Atom.size(), Value);
      if (Ec != std::errc() || End != Atom.data() + Atom.size()) {
        Diag = errorAt("malformed float literal");
        return nullptr;
      }
      return tFloat(Value);
    }
    int64_t Value = 0;
    auto [End, Ec] =
        std::from_chars(Atom.data(), Atom.data() + Atom.size(), Value);
    if (Ec != std::errc() || End != Atom.data() + Atom.size()) {
      Diag = errorAt("malformed integer literal");
      return nullptr;
    }
    return tInt(Value);
  }

  TermPtr parseAtom() {
    std::string_view Atom = lexAtom();
    if (Atom.empty()) {
      Diag = errorAt("expected an atom");
      return nullptr;
    }
    if (looksNumeric(Atom))
      return parseNumber(Atom);
    if (Atom[0] == '?') {
      if (Atom.size() == 1) {
        Diag = errorAt("empty pattern-variable name");
        return nullptr;
      }
      return makeTerm(Op::makePatVar(Symbol(Atom.substr(1))));
    }
    OpKind Kind;
    if (!opKindFromName(Atom, Kind)) {
      Diag = errorAt("unknown atom '" + std::string(Atom) + "'");
      return nullptr;
    }
    if (isBoolOp(Kind)) // bare Union/Diff/Inter is an operator value
      return tOpRef(Kind);
    if (opArity(Kind) != 0) {
      Diag = errorAt("operator '" + std::string(Atom) + "' needs arguments");
      return nullptr;
    }
    return makeTerm(Op(Kind));
  }

  TermPtr parseTerm() {
    skipWs();
    if (Pos == Text.size()) {
      Diag = errorAt("unexpected end of input");
      return nullptr;
    }
    if (Text[Pos] != '(')
      return parseAtom();
    ++Pos; // consume '('
    skipWs();
    std::string_view Head = lexAtom();
    if (Head.empty()) {
      Diag = errorAt("expected an operator after '('");
      return nullptr;
    }

    OpKind Kind;
    if (!opKindFromName(Head, Kind)) {
      Diag = errorAt("unknown operator '" + std::string(Head) + "'");
      return nullptr;
    }

    // Var and External take a raw identifier, not a term.
    if (Kind == OpKind::Var || Kind == OpKind::External) {
      skipWs();
      std::string_view Name = lexAtom();
      if (Name.empty()) {
        Diag = errorAt("expected a name");
        return nullptr;
      }
      if (!expectClose())
        return nullptr;
      return Kind == OpKind::Var ? tVar(Name) : tExternal(Name);
    }

    std::vector<TermPtr> Children;
    while (true) {
      skipWs();
      if (Pos == Text.size()) {
        Diag = errorAt("unterminated '('");
        return nullptr;
      }
      if (Text[Pos] == ')') {
        ++Pos;
        break;
      }
      if (Depth == kMaxSourceDepth) {
        Diag = errorAt("nesting deeper than " +
                       std::to_string(kMaxSourceDepth));
        return nullptr;
      }
      ++Depth;
      TermPtr Kid = parseTerm();
      --Depth;
      if (!Kid)
        return nullptr;
      Children.push_back(std::move(Kid));
    }

    int Arity = opArity(Kind);
    if (Arity >= 0 && static_cast<size_t>(Arity) != Children.size()) {
      std::ostringstream Os;
      Os << "operator '" << Head << "' expects " << Arity << " children, got "
         << Children.size();
      Diag = errorAt(Os.str());
      return nullptr;
    }
    if (Kind == OpKind::Fun && Children.size() < 2) {
      Diag = errorAt("Fun needs at least one parameter and a body");
      return nullptr;
    }
    if (Kind == OpKind::App && Children.size() < 2) {
      Diag = errorAt("App needs a function and at least one argument");
      return nullptr;
    }
    return makeTerm(Op(Kind), std::move(Children));
  }

  bool expectClose() {
    skipWs();
    if (Pos == Text.size() || Text[Pos] != ')') {
      Diag = errorAt("expected ')'");
      return false;
    }
    ++Pos;
    return true;
  }
};

} // namespace

ParseResult shrinkray::parseSexp(std::string_view Text) {
  Parser P(Text);
  return P.run();
}
