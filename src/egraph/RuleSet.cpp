//===-- egraph/RuleSet.cpp - Compiled rule database -----------------------===//

#include "egraph/RuleSet.h"

#include <algorithm>
#include <cstdlib>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Compilation: merge per-rule programs into shared-prefix tries
//===----------------------------------------------------------------------===//

RuleSet::RuleSet(const std::vector<Rewrite> &Rules) : Rules(Rules) {
  RuleGroup.resize(Rules.size());
  for (size_t R = 0; R < Rules.size(); ++R) {
    const Op &Root = Rules[R].lhs().rootOp(); // asserts op-rooted
    size_t GI = 0;
    for (; GI < Groups.size(); ++GI)
      if (Groups[GI].RootOp == Root)
        break;
    if (GI == Groups.size()) {
      Groups.emplace_back();
      Groups.back().RootOp = Root;
    }
    Group &Grp = Groups[GI];
    // A silently truncated group would drop rules from saturation, so the
    // cap is enforced in release builds too.
    if (Grp.RuleIds.size() >= MaxGroupRules) {
      assert(false && "root-op group overflow: raise RuleSet::MaxGroupRules");
      std::abort();
    }
    RuleGroup[R] = static_cast<uint32_t>(GI);
    uint32_t Local = static_cast<uint32_t>(Grp.RuleIds.size());
    Grp.RuleIds.push_back(static_cast<uint32_t>(R));
    const MatchProgram &Prog = Rules[R].lhs().program();
    Grp.VarRegs.push_back(Prog.varRegs());
    Grp.NumRegs = std::max(Grp.NumRegs, static_cast<uint16_t>(Prog.numRegs()));
    Grp.UnmergedInstrs += Prog.numInstrs();
    insertRule(Grp, Local, Prog);
  }
}

void RuleSet::insertRule(Group &Grp, uint32_t LocalIdx,
                         const MatchProgram &Prog) {
  // Walk/extend the trie one instruction at a time. Merging is by full
  // structural equality (operator, arity, and registers); since register
  // allocation is a pure function of the instruction prefix, two programs
  // that diverge structurally also diverge here, and never before.
  const std::vector<MatchInstr> &Instrs = Prog.instrs();
  assert(!Instrs.empty() && "op-rooted pattern compiles to >= 1 Bind");
  // Parent is addressed by index, not pointer: appending a node may
  // reallocate Grp.Nodes.
  const uint32_t NoParent = UINT32_MAX;
  uint32_t Parent = NoParent;
  for (const MatchInstr &I : Instrs) {
    std::vector<uint32_t> &Edges =
        Parent == NoParent ? Grp.Roots : Grp.Nodes[Parent].Kids;
    uint32_t Next = UINT32_MAX;
    for (uint32_t Kid : Edges)
      if (Grp.Nodes[Kid].Instr == I) {
        Next = Kid;
        break;
      }
    if (Next == UINT32_MAX) {
      Next = static_cast<uint32_t>(Grp.Nodes.size());
      Grp.Nodes.emplace_back(I); // may invalidate Edges...
      (Parent == NoParent ? Grp.Roots : Grp.Nodes[Parent].Kids)
          .push_back(Next);      // ...so re-resolve before writing
    }
    Parent = Next;
  }
  Grp.Nodes[Parent].Leaves.push_back(LocalIdx);
}

//===----------------------------------------------------------------------===//
// Execution: one trie traversal matches every rule of a group
//===----------------------------------------------------------------------===//

void RuleSet::searchGroup(
    size_t GI, const EGraph &G, const std::vector<Candidate> &Cands,
    std::vector<std::vector<std::pair<EClassId, Subst>>> &Out,
    const RootFilter *Filter) const {
  const Group &Grp = Groups[GI];
  assert(Out.size() >= Rules.size() && "output not sized to the database");

  // Registers are statically allocated exactly as in MatchProgram::run;
  // the group file is the max over members (shared prefixes allocate
  // identically, so no member disagrees below its divergence point).
  EClassId RegBuf[64];
  std::vector<EClassId> RegHeap;
  EClassId *Regs = RegBuf;
  if (Grp.NumRegs > 64) {
    RegHeap.resize(Grp.NumRegs);
    Regs = RegHeap.data();
  }

  EClassId Root = 0;
  RuleMask Mask;

  // Completes one substitution for every Mask-selected rule tagged on N
  // (guards run here, at the leaf, so a rejection never prunes siblings).
  auto emitLeaves = [&](const TrieNode &N) {
    for (uint32_t Leaf : N.Leaves) {
      if (!Mask.test(Leaf))
        continue;
      const Rewrite &RW = Rules[Grp.RuleIds[Leaf]];
      Subst S;
      for (const auto &[Var, Reg] : Grp.VarRegs[Leaf])
        S.bind(Var, G.find(Regs[Reg]));
      if (!RW.guard() || RW.guard()(G, S))
        Out[Grp.RuleIds[Leaf]].emplace_back(Root, std::move(S));
    }
  };

  // Recursive over trie nodes: depth is bounded by the longest member
  // program (pattern size, ~10); Bind fan-out over e-nodes stays
  // iterative. For any fixed rule this enumerates its Bind choice points
  // lexicographically in program order — the linear VM's order — because
  // the rule's instructions lie on one root-to-leaf path and sibling
  // branches only interleave, never reorder.
  auto visit = [&](auto &&Self, uint32_t NodeIdx) -> void {
    const TrieNode &N = Grp.Nodes[NodeIdx];
    const MatchInstr &I = N.Instr;
    if (I.K == MatchInstr::Kind::Compare) {
      if (G.find(Regs[I.In]) != G.find(Regs[I.Out]))
        return;
      emitLeaves(N);
      for (uint32_t Kid : N.Kids)
        Self(Self, Kid);
      return;
    }
    // Bind: each matching e-node is one choice; leaves and children run
    // under each choice in turn. Sibling subtrees may reuse the same
    // output registers — safe, each subtree is fully explored before the
    // next choice or sibling overwrites them. Register 0 holds the root,
    // so a Bind reading it is a root Bind, where the filter applies.
    const EClass &Cls = G.eclass(Regs[I.In]);
    const bool FilterRoot = Filter && I.In == 0;
    for (ENodeId NI : Cls.Nodes) {
      const ENode &Node = G.node(NI);
      if (Node.Operator != I.Operator || Node.arity() != I.Arity)
        continue;
      const ChildSpan Kids = Node.children();
      if (FilterRoot && G.nodeGen(NI) <= Filter->Cursor &&
          std::none_of(Kids.begin(), Kids.end(), [&](EClassId Kid) {
            return Filter->isDirty(G.find(Kid));
          }))
        continue;
      for (uint16_t C = 0; C < I.Arity; ++C)
        Regs[I.Out + C] = Kids[C];
      emitLeaves(N);
      for (uint32_t Kid : N.Kids)
        Self(Self, Kid);
    }
  };

  for (const Candidate &Cand : Cands) {
    if (!Cand.Mask.any())
      continue;
    Root = Cand.Class;
    Mask = Cand.Mask;
    Regs[0] = G.find(Root);
    for (uint32_t R : Grp.Roots)
      visit(visit, R);
  }
}
