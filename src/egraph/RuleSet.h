//===-- egraph/RuleSet.h - Compiled rule database ---------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole rewrite-rule database compiled into one multi-pattern matcher
/// (egg's multipattern idea applied to the flat register programs of
/// Pattern.h). Rules are grouped by the operator at their left-hand-side
/// root; within a group every rule's MatchProgram is merged into a
/// shared-prefix trie:
///
///  * instructions are merged node-by-node while they compare equal —
///    register allocation is a pure function of the preceding instruction
///    sequence, so equal prefixes bind identical registers and a shared
///    Bind/Compare spine executes exactly once for all rules under it;
///  * a rule whose program ends at a trie node becomes a *tagged leaf* of
///    that node: reaching it with a consistent register file completes one
///    substitution for exactly that rule (a program that is a strict
///    prefix of another leaves its tag on an interior node);
///  * per-rule guards run at the leaves, so a guard rejection never prunes
///    a sibling rule's continuation.
///
/// The Runner then searches *one* compiled group per candidate class
/// instead of one program per rule, which amortizes the per-class e-node
/// scans across the database. Each candidate carries a bitmask of the
/// group-local rules to match in it, so rules whose incremental cursors
/// diverged (backoff bans) can share a traversal while seeing different
/// candidate sets.
///
/// An incremental search can also pass a RootFilter (semi-naive matching
/// at e-node grain, after "Relational E-Matching"'s delta relations): the
/// root Bind then skips every e-node that already existed at the search
/// cursor and whose children all lie outside the dirty closure since it.
/// Every match through such a node was found by the previous search, so
/// an incremental search finds — and the Runner counts — only matches
/// that are new or changed since its cursor.
///
/// searchGroup() only reads the e-graph through const queries (find,
/// eclass, data) and writes only the caller's per-rule output buffers, so
/// distinct groups can be searched from distinct threads against one
/// unmodified graph snapshot — see EGraph::prepareForConcurrentReads for
/// the lazy-index contract.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_RULESET_H
#define SHRINKRAY_EGRAPH_RULESET_H

#include "egraph/Rewrite.h"

#include <cstdint>
#include <vector>

namespace shrinkray {

/// A rewrite-rule database compiled for multi-pattern search. Holds a
/// reference to the rule vector it was compiled from; the caller keeps
/// that vector alive (and unmodified) for the RuleSet's lifetime.
class RuleSet {
public:
  /// Hard cap on rules per root-operator group (candidate masks are a
  /// fixed RuleMask bitset of this many bits). The pipeline database's
  /// largest group is ~10 rules, so 128 leaves an order of magnitude of
  /// headroom while keeping Candidate small on the per-iteration
  /// scheduling path; overflowing it is a hard error (abort, not a
  /// silently truncated group) — raising the constant is the whole fix
  /// if a grown database ever needs more.
  static constexpr size_t MaxGroupRules = 128;

  /// Fixed-width bitset over a group's local rule indices (bit i =
  /// groupRules(GI)[i]). Replaces the former single uint64_t so groups
  /// past 64 rules keep exact per-candidate rule selection.
  struct RuleMask {
    static constexpr size_t Words = (MaxGroupRules + 63) / 64;
    uint64_t W[Words] = {};

    void set(size_t I) {
      assert(I < MaxGroupRules && "rule mask bit out of range");
      W[I >> 6] |= uint64_t(1) << (I & 63);
    }
    bool test(size_t I) const {
      assert(I < MaxGroupRules && "rule mask bit out of range");
      return (W[I >> 6] >> (I & 63)) & 1;
    }
    bool any() const {
      for (uint64_t Word : W)
        if (Word)
          return true;
      return false;
    }
    RuleMask &operator|=(const RuleMask &O) {
      for (size_t I = 0; I < Words; ++I)
        W[I] |= O.W[I];
      return *this;
    }
    /// The mask selecting local rules 0..N-1 (a fully active group).
    static RuleMask firstN(size_t N) {
      RuleMask M;
      for (size_t I = 0; I < N; ++I)
        M.set(I);
      return M;
    }
  };

  /// Compiles \p Rules. Every left-hand side must be rooted at a concrete
  /// operator (true of the whole rule database; asserted).
  explicit RuleSet(const std::vector<Rewrite> &Rules);

  const std::vector<Rewrite> &rules() const { return Rules; }
  size_t numRules() const { return Rules.size(); }

  size_t numGroups() const { return Groups.size(); }

  /// The root operator shared by every rule in group \p GI.
  const Op &groupOp(size_t GI) const { return Groups[GI].RootOp; }

  /// Global rule indices of group \p GI, ascending (the group's local rule
  /// index — the candidate-mask bit — is the position in this list).
  const std::vector<uint32_t> &groupRules(size_t GI) const {
    return Groups[GI].RuleIds;
  }

  /// Group index owning global rule \p RuleIdx.
  size_t groupOfRule(size_t RuleIdx) const { return RuleGroup[RuleIdx]; }

  /// Trie size of group \p GI; tests assert it is smaller than the sum of
  /// the member programs (the shared prefix actually shared).
  size_t numTrieNodes(size_t GI) const { return Groups[GI].Nodes.size(); }

  /// Total instructions across group \p GI's member programs before
  /// merging (numTrieNodes <= this; equality means nothing was shared).
  size_t numUnmergedInstrs(size_t GI) const {
    return Groups[GI].UnmergedInstrs;
  }

  /// A candidate class paired with the mask of group-local rules to match
  /// in it (bit i = groupRules(GI)[i]).
  struct Candidate {
    EClassId Class;
    RuleMask Mask;
  };

  /// The incremental filter for the root Bind: a search at cursor
  /// \c Cursor may skip any root e-node stamped <= Cursor (EGraph::nodeGen)
  /// whose canonical children are all clear in \c Dirty, a bitmap over
  /// class ids of EGraph::takeDirtySince(Cursor). Such a node and every
  /// class below it are unchanged since the cursor, and guards read only
  /// classes below the root, so each of its matches was already found
  /// then. Only valid for a search whose every active rule last searched
  /// at \c Cursor.
  struct RootFilter {
    uint64_t Cursor = 0;
    std::vector<uint64_t> Dirty; ///< bit per class id

    RootFilter(uint64_t Cursor, const std::vector<EClassId> &DirtyIds,
               size_t NumIds)
        : Cursor(Cursor), Dirty((NumIds + 63) / 64, 0) {
      for (EClassId Id : DirtyIds)
        Dirty[Id >> 6] |= uint64_t(1) << (Id & 63);
    }
    bool isDirty(EClassId Id) const {
      return (Dirty[Id >> 6] >> (Id & 63)) & 1;
    }
  };

  /// Runs group \p GI's trie over \p Cands, appending each completed
  /// (root, substitution) — post-guard — to Out[global rule index]. For
  /// any fixed rule the matches appear in exactly the order the rule's own
  /// searchIn() would produce over the same candidate subsequence, so
  /// swapping per-rule search for group search is apply-order-invisible.
  /// With \p Filter, root e-nodes it rules out are skipped; the result is
  /// the unfiltered one with those nodes' matches removed, order kept.
  /// const and data-race-free w.r.t. a prepared, unmodified graph.
  void searchGroup(size_t GI, const EGraph &G,
                   const std::vector<Candidate> &Cands,
                   std::vector<std::vector<std::pair<EClassId, Subst>>> &Out,
                   const RootFilter *Filter = nullptr) const;

private:
  /// One trie node: an instruction, the nodes to run after it succeeds,
  /// and the group-local rules completed by reaching it.
  struct TrieNode {
    explicit TrieNode(MatchInstr I) : Instr(std::move(I)) {}
    MatchInstr Instr;
    std::vector<uint32_t> Kids;
    std::vector<uint32_t> Leaves; ///< group-local rule indices
  };

  struct Group {
    Op RootOp{OpKind::Empty};
    std::vector<uint32_t> RuleIds; ///< global indices, ascending
    std::vector<TrieNode> Nodes;   ///< node 0 is unused sentinel-free root
                                   ///< list: Roots index into Nodes
    std::vector<uint32_t> Roots;   ///< top-level nodes (normally one Bind)
    /// Register file size: max over member programs (shared prefixes
    /// allocate identically, so programs never disagree below their
    /// divergence point).
    uint16_t NumRegs = 1;
    /// Per local rule: (variable, register) pairs in first-occurrence
    /// order, used to materialize the Subst at the rule's leaf.
    std::vector<std::vector<std::pair<Symbol, uint16_t>>> VarRegs;
    size_t UnmergedInstrs = 0;
  };

  const std::vector<Rewrite> &Rules;
  std::vector<Group> Groups;      ///< first-occurrence order of root ops
  std::vector<uint32_t> RuleGroup; ///< rule index -> group index

  void insertRule(Group &Grp, uint32_t LocalIdx, const MatchProgram &Prog);
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_RULESET_H
