//===-- egraph/Runner.cpp - Equality saturation driver --------------------===//

#include "egraph/Runner.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

using namespace shrinkray;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Applied-match memo key: canonical ids of the match root and every bound
/// variable, in Pattern::vars() order. FNV-1a over the words.
struct MatchKeyHash {
  size_t operator()(const std::vector<EClassId> &K) const {
    uint64_t H = 1469598103934665603ull;
    for (EClassId V : K) {
      H ^= V;
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

using AppliedMemo = std::unordered_set<std::vector<EClassId>, MatchKeyHash>;

/// True for the head kinds whose Op carries a literal or symbol payload.
bool opHasPayload(OpKind K) {
  return K == OpKind::Int || K == OpKind::Float || K == OpKind::Var ||
         K == OpKind::External || K == OpKind::OpRef || K == OpKind::PatVar;
}

} // namespace

RunnerReport Runner::run(EGraph &G, const std::vector<Rewrite> &Rules) const {
  RuleSet Compiled(Rules);
  return run(G, Compiled);
}

RunnerReport Runner::run(EGraph &G, const RuleSet &DB) const {
  const auto Start = Clock::now();
  auto elapsed = [&] { return secondsSince(Start); };

  const std::vector<Rewrite> &Rules = DB.rules();
  const size_t NumRules = Rules.size();
  const size_t NumGroups = DB.numGroups();

  RunnerReport Report;
  Report.Rules.resize(NumRules);
  for (size_t R = 0; R < NumRules; ++R)
    Report.Rules[R].Name = Rules[R].name();

  // Backoff state per rule: banned-until iteration and current ban length.
  std::vector<size_t> BannedUntil(NumRules, 0);
  std::vector<size_t> BanLength(NumRules, Limits.BanLengthIters);

  // Incremental-search state per rule: the graph generation as of the
  // rule's last search whose matches were applied. Matches found before
  // that generation have been applied already (applying is idempotent), so
  // later searches only need classes dirtied since. A search discarded by
  // the match-limit backoff does NOT advance the cursor: dirtiness is
  // monotone, so the discarded matches are re-found when the ban expires.
  std::vector<uint64_t> LastSearchGen(NumRules, 0);
  std::vector<char> EverSearched(NumRules, 0);

  // Applied-match memo per rule (all iterations): canonicalized
  // (root, bindings) tuples whose merge already happened. Entries go
  // stale when a later merge re-canonicalizes their ids; the re-found
  // match then misses, re-applies as a cheap no-op, and re-inserts under
  // the fresh ids — correctness never depends on a hit.
  std::vector<AppliedMemo> Applied(NumRules);

  // Match-limit window per rule: distinct graph-changing merges
  // accumulated across the current incremental streak. Reset by full
  // searches (which re-baseline against the whole graph) and by bans.
  std::vector<size_t> WindowMerged(NumRules, 0);

  auto finish = [&](StopReason Stop) {
    Report.Stop = Stop;
    Report.Seconds = elapsed();
    return std::move(Report);
  };

  const size_t Threads = resolveThreads(Limits.NumThreads);
  WorkerPool Pool(Threads > 1 ? Threads - 1 : 0);

  // Pre-search cursor snapshots for the mid-apply ban's rollback; hoisted
  // out of the iteration loop so the common no-ban iteration pays one
  // assign() into existing capacity, not fresh allocations.
  std::vector<uint64_t> CursorBefore;
  std::vector<char> EverBefore;

  // Applied-memo key scratch, likewise hoisted.
  std::vector<EClassId> Key;

  G.rebuild();
  for (size_t Iter = 0; Iter < Limits.IterLimit; ++Iter) {
    // Cooperative cancellation, iteration-granular: stopping here leaves
    // the graph clean and every cursor sound.
    if (Limits.Cancel.cancelled())
      return finish(StopReason::Cancelled);
    const auto IterStart = Clock::now();
    IterationStats Stats;
    size_t NodesBefore = G.numNodes();

    // Dirty closures are identical for every rule sharing a search cursor
    // (the common case: all non-banned rules advanced together last
    // iteration), so compute each distinct closure once per iteration.
    std::unordered_map<uint64_t, std::vector<EClassId>> DirtyByGen;
    auto dirtySince = [&](uint64_t Gen) -> const std::vector<EClassId> & {
      auto It = DirtyByGen.find(Gen);
      if (It == DirtyByGen.end())
        It = DirtyByGen.emplace(Gen, G.takeDirtySince(Gen)).first;
      return It->second;
    };

    // (The windowed backoff trigger fires mid-apply in phase 2 below, the
    // moment a rule's incremental streak crosses MatchLimit — so between
    // iterations every rule's WindowMerged is already <= the limit.)

    // Root filters for incremental searches, one per distinct cursor.
    std::unordered_map<uint64_t, RuleSet::RootFilter> FilterByGen;
    auto rootFilter = [&](uint64_t Gen) -> const RuleSet::RootFilter * {
      auto It = FilterByGen.find(Gen);
      if (It == FilterByGen.end())
        It = FilterByGen
                 .try_emplace(Gen, Gen, dirtySince(Gen), G.numIds())
                 .first;
      return &It->second;
    };

    // Phase 1a (serial): schedule every non-banned rule — full indexed
    // search or dirty-restricted incremental — and assemble one candidate
    // list per root-op group, each candidate tagged with the mask of
    // group-local rules that must search it. Rules sharing a cursor (the
    // common case) share one list and one full mask, and their search
    // gets the cursor's root filter. Full searches — first searches, the
    // dirty > 1/2 fallback, the first search after a ban — and groups
    // whose cursors diverged run unfiltered, so the per-search ban below
    // sees whole-graph counts where it can fire after a ban.
    const auto SearchStart = Clock::now();
    std::vector<char> RuleActive(NumRules, 0), RuleFull(NumRules, 0);
    std::vector<std::vector<RuleSet::Candidate>> GroupCands(NumGroups);
    std::vector<const RuleSet::RootFilter *> GroupFilter(NumGroups, nullptr);
    std::vector<size_t> GroupActive(NumGroups, 0);
    for (size_t GI = 0; GI < NumGroups; ++GI) {
      const std::vector<uint32_t> &Members = DB.groupRules(GI);
      const Op &RootOp = DB.groupOp(GI);
      // The op-index bucket is only compacted when a search needs it: a
      // full search scans it, and a payload-carrying root op (Int 3,
      // Var i) cannot be told apart by head kind alone.
      const std::vector<EClassId> *Bucket = nullptr;
      auto bucket = [&]() -> const std::vector<EClassId> & {
        if (!Bucket)
          Bucket = &G.classesWithOp(RootOp);
        return *Bucket;
      };
      const bool KindExact = !opHasPayload(RootOp.kind());
      // Per-cursor filtered candidate lists, shared by same-cursor rules.
      std::unordered_map<uint64_t, std::vector<EClassId>> FilteredByGen;
      const std::vector<EClassId> *FirstList = nullptr;
      bool AllSame = true;
      bool Filterable = true; // every active member incremental, one cursor
      std::vector<const std::vector<EClassId> *> MemberList(Members.size(),
                                                            nullptr);
      for (size_t B = 0; B < Members.size(); ++B) {
        const size_t R = Members[B];
        if (BannedUntil[R] > Iter)
          continue;
        RuleActive[R] = 1;
        ++GroupActive[GI];
        RuleStats &RS = Report.Rules[R];
        if (!EverSearched[R]) {
          MemberList[B] = &bucket();
          RuleFull[R] = 1;
          ++RS.FullSearches;
        } else {
          const std::vector<EClassId> &Dirty = dirtySince(LastSearchGen[R]);
          if (Dirty.size() * 2 >= G.numClasses()) {
            // Most of the graph changed; the set intersection would not
            // prune enough to pay for itself.
            MemberList[B] = &bucket();
            RuleFull[R] = 1;
            ++RS.FullSearches;
          } else {
            auto It = FilteredByGen.find(LastSearchGen[R]);
            if (It == FilteredByGen.end()) {
              // Dirty is sorted ascending, so the kept candidates are too.
              std::vector<EClassId> Filtered;
              if (KindExact) {
                for (EClassId Id : Dirty)
                  if (G.hasKind(Id, RootOp.kind()))
                    Filtered.push_back(Id);
              } else {
                std::set_intersection(bucket().begin(), bucket().end(),
                                      Dirty.begin(), Dirty.end(),
                                      std::back_inserter(Filtered));
              }
              It = FilteredByGen.emplace(LastSearchGen[R],
                                         std::move(Filtered))
                       .first;
            }
            MemberList[B] = &It->second;
            ++RS.IncrementalSearches;
            // The first search after a ban expires stays unfiltered.
            if (BannedUntil[R] == Iter)
              Filterable = false;
          }
        }
        if (RuleFull[R])
          Filterable = false;
        if (!FirstList)
          FirstList = MemberList[B];
        else if (FirstList != MemberList[B])
          AllSame = false;
      }
      if (!FirstList)
        continue; // whole group banned
      std::vector<RuleSet::Candidate> &Cands = GroupCands[GI];
      // All members incremental on one list means one cursor: the list's
      // only FilteredByGen key.
      if (AllSame && Filterable && !FirstList->empty())
        GroupFilter[GI] = rootFilter(FilteredByGen.begin()->first);
      if (AllSame) {
        RuleSet::RuleMask Mask;
        for (size_t B = 0; B < Members.size(); ++B)
          if (MemberList[B])
            Mask.set(B);
        Cands.reserve(FirstList->size());
        for (EClassId Id : *FirstList)
          Cands.push_back({Id, Mask});
      } else {
        // Cursors diverged (bans): merge the sorted per-rule lists into
        // one ascending list of (class, rule mask).
        std::unordered_map<EClassId, RuleSet::RuleMask> Merged;
        for (size_t B = 0; B < Members.size(); ++B)
          if (MemberList[B])
            for (EClassId Id : *MemberList[B])
              Merged[Id].set(B);
        Cands.reserve(Merged.size());
        for (const auto &[Id, Mask] : Merged)
          Cands.push_back({Id, Mask});
        std::sort(Cands.begin(), Cands.end(),
                  [](const RuleSet::Candidate &A, const RuleSet::Candidate &B) {
                    return A.Class < B.Class;
                  });
      }
    }

    // Phase 1b: run the group searches against the unmodified snapshot.
    // Heaviest groups first so the pool drains evenly.
    std::vector<size_t> Order;
    Order.reserve(NumGroups);
    for (size_t GI = 0; GI < NumGroups; ++GI)
      if (!GroupCands[GI].empty())
        Order.push_back(GI);
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      if (GroupCands[A].size() != GroupCands[B].size())
        return GroupCands[A].size() > GroupCands[B].size();
      return A < B;
    });
    std::vector<std::vector<std::pair<EClassId, Subst>>> AllMatches(NumRules);
    std::vector<double> GroupSec(NumGroups, 0.0);
    auto searchOne = [&](size_t TaskIdx) {
      const size_t GI = Order[TaskIdx];
      const auto T0 = Clock::now();
      DB.searchGroup(GI, G, GroupCands[GI], AllMatches, GroupFilter[GI]);
      GroupSec[GI] = secondsSince(T0);
    };
    if (Threads > 1 && Order.size() > 1) {
      // Quiesce the lazy indexes (union-find halving, op-bucket
      // compaction) so every const query the workers make is write-free.
      G.prepareForConcurrentReads();
      Pool.run(Order.size(), searchOne);
    } else {
      for (size_t T = 0; T < Order.size(); ++T)
        searchOne(T);
    }

    // Group search time is shared work: attribute it evenly across the
    // group's active rules (exact per-rule attribution does not exist
    // once the Bind spine is shared).
    for (size_t GI = 0; GI < NumGroups; ++GI) {
      if (!GroupActive[GI])
        continue;
      double Share = GroupSec[GI] / static_cast<double>(GroupActive[GI]);
      for (uint32_t R : DB.groupRules(GI))
        if (RuleActive[R])
          Report.Rules[R].SearchSec += Share;
    }

    // Phase 1c: per-rule match accounting and the per-search ban trigger.
    std::vector<char> SearchedNow(NumRules, 0);
    for (size_t R = 0; R < NumRules; ++R) {
      if (!RuleActive[R])
        continue;
      RuleStats &RS = Report.Rules[R];
      RS.Matches += AllMatches[R].size();
      Stats.Matches += AllMatches[R].size();
      SearchedNow[R] = 1;
      if (AllMatches[R].size() > Limits.MatchLimit) {
        // Explosive rule: skip it this iteration and ban it for a while,
        // doubling the ban each time (exponential backoff). Like the
        // mid-apply trigger below, the ban covers the *next* BanLength
        // iterations — `Iter + BanLength` would make a BanLength of 1 a
        // no-op (the `> Iter` check at the next iteration already
        // passes) and re-run the same over-limit search immediately.
        BannedUntil[R] = Iter + 1 + BanLength[R];
        BanLength[R] *= 2;
        ++RS.Bans;
        AllMatches[R].clear();
        SearchedNow[R] = 0; // discarded: keep the cursor where it was
        WindowMerged[R] = 0;
      }
    }

    // Searches ran against an unmodified graph, so one generation stamp
    // covers them all; everything the applies below touch is newer. The
    // pre-search cursor values are kept so a mid-apply ban can roll a
    // rule back (its unapplied matches must be re-findable later).
    const uint64_t GenAfterSearch = G.generation();
    CursorBefore.assign(LastSearchGen.begin(), LastSearchGen.end());
    EverBefore.assign(EverSearched.begin(), EverSearched.end());
    for (size_t R = 0; R < NumRules; ++R)
      if (SearchedNow[R]) {
        LastSearchGen[R] = GenAfterSearch;
        EverSearched[R] = 1;
        if (RuleFull[R])
          WindowMerged[R] = 0; // full search re-baselines the window
      }
    Stats.SearchSec = secondsSince(SearchStart);

    // Phase 2 (serial): apply everything not yet in the applied memo, in
    // rule order and match order, then restore invariants once (egg's
    // deferred rebuild). Memo keys are canonicalized at apply time, so a
    // re-found match whose merge already happened costs one hash probe.
    //
    // The windowed backoff trigger fires mid-apply: the merge that pushes a
    // rule's incremental streak past MatchLimit bans the rule, discards its
    // remaining matches, and rolls its cursor back to the pre-search value
    // — so the discarded matches are re-found after the ban (dirtiness is
    // monotone) instead of being lost.
    const auto ApplyStart = Clock::now();
    for (size_t R = 0; R < NumRules; ++R) {
      if (AllMatches[R].empty())
        continue;
      RuleStats &RS = Report.Rules[R];
      const auto RuleApplyStart = Clock::now();
      const std::vector<Symbol> &Vars = Rules[R].lhs().vars();
      bool WindowBan = false;
      for (const auto &[Root, S] : AllMatches[R]) {
        Key.clear();
        Key.push_back(G.find(Root));
        for (Symbol V : Vars)
          Key.push_back(G.find(S[V]));
        if (Applied[R].find(Key) != Applied[R].end())
          continue; // already merged: re-applying cannot change the graph
        Rewrite::ApplyOutcome Outcome = Rules[R].applyMatch(G, Root, S);
        if (Outcome == Rewrite::ApplyOutcome::Skipped)
          continue; // applier declined: retry later
        Applied[R].insert(Key);
        if (Outcome == Rewrite::ApplyOutcome::Changed) {
          ++Stats.Applied;
          ++RS.Applied;
          if (++WindowMerged[R] > Limits.MatchLimit) {
            WindowBan = true;
            break;
          }
        }
      }
      if (WindowBan) {
        // Ban starts next iteration and doubles like the search trigger.
        BannedUntil[R] = Iter + 1 + BanLength[R];
        BanLength[R] *= 2;
        WindowMerged[R] = 0;
        ++RS.Bans;
        LastSearchGen[R] = CursorBefore[R];
        EverSearched[R] = EverBefore[R];
      }
      RS.ApplySec += secondsSince(RuleApplyStart);
    }
    Stats.ApplySec = secondsSince(ApplyStart);

    const auto RebuildStart = Clock::now();
    G.rebuild();

    // Every live cursor has passed the log prefix at generations <= the
    // minimum rule cursor; rules never searched do not read the log (their
    // next search is full).
    uint64_t MinCursor = UINT64_MAX;
    bool AnyCursor = false;
    for (size_t R = 0; R < NumRules; ++R)
      if (EverSearched[R]) {
        MinCursor = std::min(MinCursor, LastSearchGen[R]);
        AnyCursor = true;
      }
    if (AnyCursor)
      G.compactDirtyLog(MinCursor);
    Stats.RebuildSec = secondsSince(RebuildStart);

    Stats.Nodes = G.numNodes();
    Stats.Classes = G.numClasses();
    Stats.Seconds = secondsSince(IterStart);
    Report.SearchSec += Stats.SearchSec;
    Report.ApplySec += Stats.ApplySec;
    Report.RebuildSec += Stats.RebuildSec;
    Report.Iterations.push_back(Stats);

    bool Changed = Stats.Applied > 0 || Stats.Nodes != NodesBefore;
    if (!Changed) {
      // A quiet iteration proves saturation only if every rule actually
      // participated: a rule banned this iteration may still have pending
      // matches (the windowed trigger discards matches and rolls cursors
      // back). Idle through the remaining ban iterations instead — they
      // cost one empty search round each — and re-test once the banned
      // rule has had its say.
      bool AnyBanned = false;
      for (size_t R = 0; R < NumRules; ++R)
        if (BannedUntil[R] > Iter) {
          AnyBanned = true;
          break;
        }
      if (!AnyBanned)
        return finish(StopReason::Saturated);
    }
    if (Stats.Nodes > Limits.NodeLimit)
      return finish(StopReason::NodeLimit);
    if (elapsed() > Limits.TimeLimitSec)
      return finish(StopReason::TimeLimit);
  }
  return finish(StopReason::IterLimit);
}
