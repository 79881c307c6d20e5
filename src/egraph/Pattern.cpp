//===-- egraph/Pattern.cpp - E-matching patterns --------------------------===//

#include "egraph/Pattern.h"

#include "cad/Sexp.h"

#include <functional>

using namespace shrinkray;

Pattern::Pattern(TermPtr T) : Root(std::move(T)), Prog(Root) {
  collectVars(Root, Vars);
}

Pattern Pattern::parse(std::string_view Sexp) {
  ParseResult R = parseSexp(Sexp);
  assert(R && "pattern constant failed to parse");
  return Pattern(R.Value);
}

void Pattern::collectVars(const TermPtr &T, std::vector<Symbol> &Out) {
  if (T->kind() == OpKind::PatVar) {
    Symbol Name = T->op().symbol();
    for (Symbol Existing : Out)
      if (Existing == Name)
        return;
    Out.push_back(Name);
    return;
  }
  for (const TermPtr &Kid : T->children())
    collectVars(Kid, Out);
}

//===----------------------------------------------------------------------===//
// Compiled match programs
//===----------------------------------------------------------------------===//

MatchProgram::MatchProgram(const TermPtr &Root) { compile(Root, 0); }

void MatchProgram::compile(const TermPtr &Pat, uint16_t Reg) {
  if (Pat->kind() == OpKind::PatVar) {
    Symbol Var = Pat->op().symbol();
    for (const auto &[Name, Bound] : VarRegs)
      if (Name == Var) {
        // Nonlinear occurrence: the classes must coincide.
        Instrs.push_back(MatchInstr::compare(Bound, Reg));
        return;
      }
    VarRegs.emplace_back(Var, Reg);
    return;
  }
  const uint16_t Arity = static_cast<uint16_t>(Pat->numChildren());
  const uint16_t Base = NumRegs;
  assert(static_cast<size_t>(NumRegs) + Arity <= 65535 &&
         "register file overflow");
  NumRegs = static_cast<uint16_t>(NumRegs + Arity);
  Instrs.push_back(MatchInstr::bind(Pat->op(), Reg, Base, Arity));
  for (uint16_t I = 0; I < Arity; ++I)
    compile(Pat->child(I), static_cast<uint16_t>(Base + I));
}

void MatchProgram::run(const EGraph &G, EClassId Root,
                       std::vector<Subst> &Out) const {
  // Registers are statically allocated: each Bind owns a fixed output
  // window, and an instruction only ever reads registers written by
  // earlier instructions in program order, so backtracking never needs to
  // truncate the file — re-entered Binds simply overwrite their window.
  EClassId RegBuf[64];
  std::vector<EClassId> RegHeap;
  EClassId *Regs = RegBuf;
  if (NumRegs > 64) {
    RegHeap.resize(NumRegs);
    Regs = RegHeap.data();
  }
  Regs[0] = G.find(Root);

  /// A Bind choice point: the instruction and the next node to try.
  struct Frame {
    uint32_t Pc;
    uint32_t NodeIdx;
  };
  std::vector<Frame> Stack;
  Stack.reserve(Instrs.size());

  // Resumes the Bind at \p F from its saved node cursor: finds the next
  // node with the right head and arity, writes its children, and lands
  // the program counter after the Bind. False when the class is
  // exhausted.
  size_t Pc = 0;
  auto tryEnter = [&](Frame &F) -> bool {
    const MatchInstr &I = Instrs[F.Pc];
    const std::vector<ENodeId> &Nodes = G.eclass(Regs[I.In]).Nodes;
    for (uint32_t N = F.NodeIdx; N < Nodes.size(); ++N) {
      const ENode &Node = G.node(Nodes[N]);
      if (Node.Operator != I.Operator || Node.arity() != I.Arity)
        continue;
      for (uint16_t C = 0; C < I.Arity; ++C)
        Regs[I.Out + C] = Node.child(C);
      F.NodeIdx = N + 1;
      Pc = F.Pc + 1;
      return true;
    }
    return false;
  };
  // Unwinds to the most recent Bind with untried nodes. False when the
  // whole search space is exhausted.
  auto backtrack = [&]() -> bool {
    while (!Stack.empty()) {
      if (tryEnter(Stack.back()))
        return true;
      Stack.pop_back();
    }
    return false;
  };

  for (;;) {
    if (Pc == Instrs.size()) {
      Subst S;
      for (const auto &[Var, Reg] : VarRegs)
        S.bind(Var, G.find(Regs[Reg]));
      Out.push_back(std::move(S));
      if (!backtrack())
        return;
      continue;
    }
    const MatchInstr &I = Instrs[Pc];
    if (I.K == MatchInstr::Kind::Compare) {
      if (G.find(Regs[I.In]) == G.find(Regs[I.Out])) {
        ++Pc;
        continue;
      }
      if (!backtrack())
        return;
      continue;
    }
    Stack.push_back({static_cast<uint32_t>(Pc), 0});
    if (!tryEnter(Stack.back())) {
      Stack.pop_back();
      if (!backtrack())
        return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Reference matcher (differential-testing oracle)
//===----------------------------------------------------------------------===//

namespace {

/// Backtracking e-matcher in continuation-passing style so that sibling
/// subpatterns share one substitution. Superseded by MatchProgram on the
/// hot path; retained as the independent oracle the equivalence tests run
/// the VM against.
class Matcher {
public:
  Matcher(const EGraph &G, std::vector<Subst> &Out) : G(G), Out(Out) {}

  void match(const TermPtr &Pat, EClassId Class) {
    Subst S;
    rec(Pat, Class, S, [&] { Out.push_back(S); });
  }

private:
  const EGraph &G;
  std::vector<Subst> &Out;

  void rec(const TermPtr &Pat, EClassId Class, Subst &S,
           const std::function<void()> &K) {
    Class = G.find(Class);
    if (Pat->kind() == OpKind::PatVar) {
      Symbol Var = Pat->op().symbol();
      if (std::optional<EClassId> Bound = S.get(Var)) {
        if (G.find(*Bound) == Class)
          K();
        return;
      }
      S.bind(Var, Class);
      K();
      S.pop();
      return;
    }
    for (ENodeId N : G.eclass(Class).Nodes) {
      const ENode &Node = G.node(N);
      if (Node.Operator != Pat->op() || Node.arity() != Pat->numChildren())
        continue;
      recChildren(Pat, Node, 0, S, K);
    }
  }

  void recChildren(const TermPtr &Pat, const ENode &Node, size_t I, Subst &S,
                   const std::function<void()> &K) {
    if (I == Pat->numChildren()) {
      K();
      return;
    }
    rec(Pat->child(I), Node.child(I), S,
        [&] { recChildren(Pat, Node, I + 1, S, K); });
  }
};

} // namespace

std::vector<Subst> Pattern::matchClass(const EGraph &G, EClassId Root) const {
  assert(!G.isDirty() && "match on a dirty e-graph; call rebuild() first");
  std::vector<Subst> Out;
  Prog.run(G, Root, Out);
  return Out;
}

std::vector<Subst> Pattern::matchClassReference(const EGraph &G,
                                                EClassId Root) const {
  assert(!G.isDirty() && "match on a dirty e-graph; call rebuild() first");
  std::vector<Subst> Out;
  Matcher M(G, Out);
  M.match(this->Root, Root);
  return Out;
}

std::vector<std::pair<EClassId, Subst>>
Pattern::search(const EGraph &G) const {
  // Var-rooted patterns match everywhere; everything else only roots in
  // classes the operator-head index lists for the root operator.
  if (Root->kind() == OpKind::PatVar)
    return searchIn(G, G.classIds());
  return searchIn(G, G.classesWithOp(Root->op()));
}

std::vector<std::pair<EClassId, Subst>>
Pattern::searchIn(const EGraph &G,
                  const std::vector<EClassId> &Candidates) const {
  std::vector<std::pair<EClassId, Subst>> Out;
  for (EClassId Id : Candidates)
    for (Subst &S : matchClass(G, Id))
      Out.emplace_back(Id, std::move(S));
  return Out;
}

EClassId Pattern::instantiate(EGraph &G, const Subst &S) const {
  struct Builder {
    EGraph &G;
    const Subst &S;
    EClassId rec(const TermPtr &Pat) {
      if (Pat->kind() == OpKind::PatVar)
        return S[Pat->op().symbol()];
      std::vector<EClassId> Kids;
      Kids.reserve(Pat->numChildren());
      for (const TermPtr &Kid : Pat->children())
        Kids.push_back(rec(Kid));
      return G.add(ENode(Pat->op(), Kids));
    }
  };
  return Builder{G, S}.rec(Root);
}
