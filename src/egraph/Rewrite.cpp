//===-- egraph/Rewrite.cpp - Rewrite rules --------------------------------===//

#include "egraph/Rewrite.h"

using namespace shrinkray;

Rewrite::Rewrite(std::string Name, std::string_view Lhs, std::string_view Rhs)
    : Name(std::move(Name)), Lhs(Pattern::parse(Lhs)),
      Rhs(Pattern::parse(Rhs)) {}

Rewrite::Rewrite(std::string Name, std::string_view Lhs, std::string_view Rhs,
                 Guard Condition)
    : Name(std::move(Name)), Lhs(Pattern::parse(Lhs)),
      Rhs(Pattern::parse(Rhs)), Condition(std::move(Condition)) {}

Rewrite::Rewrite(std::string Name, std::string_view Lhs, Applier Apply)
    : Name(std::move(Name)), Lhs(Pattern::parse(Lhs)),
      Apply(std::move(Apply)) {}

static std::vector<std::pair<EClassId, Subst>>
filterByGuard(const Rewrite::Guard &Condition, const EGraph &G,
              std::vector<std::pair<EClassId, Subst>> Matches) {
  if (!Condition)
    return Matches;
  std::vector<std::pair<EClassId, Subst>> Kept;
  Kept.reserve(Matches.size());
  for (auto &M : Matches)
    if (Condition(G, M.second))
      Kept.push_back(std::move(M));
  return Kept;
}

std::vector<std::pair<EClassId, Subst>>
Rewrite::search(const EGraph &G) const {
  return filterByGuard(Condition, G, Lhs.search(G));
}

std::vector<std::pair<EClassId, Subst>>
Rewrite::searchIn(const EGraph &G,
                  const std::vector<EClassId> &Candidates) const {
  return filterByGuard(Condition, G, Lhs.searchIn(G, Candidates));
}

bool Rewrite::apply(EGraph &G, EClassId Root, const Subst &S) const {
  return applyMatch(G, Root, S) == ApplyOutcome::Changed;
}

Rewrite::ApplyOutcome Rewrite::applyMatch(EGraph &G, EClassId Root,
                                          const Subst &S) const {
  if (Apply) {
    std::optional<EClassId> New = Apply(G, Root, S);
    if (!New)
      return ApplyOutcome::Skipped;
    return G.merge(Root, *New).second ? ApplyOutcome::Changed
                                      : ApplyOutcome::Unchanged;
  }
  assert(Rhs && "rewrite has neither an RHS pattern nor an applier");
  EClassId New = Rhs->instantiate(G, S);
  return G.merge(Root, New).second ? ApplyOutcome::Changed
                                   : ApplyOutcome::Unchanged;
}

size_t Rewrite::run(EGraph &G) const {
  size_t Changed = 0;
  for (const auto &[Root, S] : search(G))
    if (apply(G, Root, S))
      ++Changed;
  G.rebuild();
  return Changed;
}

Rewrite::Guard shrinkray::isConst(std::string_view Var) {
  Symbol V{Var};
  return [V](const EGraph &G, const Subst &S) {
    return G.data(S[V]).NumConst.has_value();
  };
}

Rewrite::Guard
shrinkray::areConst(std::initializer_list<std::string_view> Vars) {
  std::vector<Symbol> Syms;
  for (std::string_view V : Vars)
    Syms.emplace_back(V);
  return [Syms](const EGraph &G, const Subst &S) {
    for (Symbol V : Syms)
      if (!G.data(S[V]).NumConst)
        return false;
    return true;
  };
}

Rewrite::Guard shrinkray::isNonzeroConst(std::string_view Var) {
  Symbol V{Var};
  return [V](const EGraph &G, const Subst &S) {
    const AnalysisData &D = G.data(S[V]);
    return D.NumConst.has_value() && *D.NumConst != 0.0;
  };
}

Rewrite::Guard shrinkray::guardAnd(Rewrite::Guard A, Rewrite::Guard B) {
  return [A = std::move(A), B = std::move(B)](const EGraph &G,
                                              const Subst &S) {
    return A(G, S) && B(G, S);
  };
}

double shrinkray::constValue(const EGraph &G, const Subst &S, Symbol Var) {
  const AnalysisData &D = G.data(S[Var]);
  assert(D.NumConst && "constValue on a non-constant class");
  return *D.NumConst;
}
