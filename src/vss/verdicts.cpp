#include "src/vss/verdicts.hpp"

#include "src/graph/star.hpp"

namespace bobw {

std::optional<wire::StarMsg> find_wef(const VerdictState& vs, const std::vector<SymBivariate>& Qs,
                                      int ts) {
  const int n = vs.n();
  // Prune parties whose regular-mode NOK claims a wrong value.
  std::vector<char> bad(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const auto& v = vs.reg(i, j);
      if (!v || v->ok) continue;
      if (v->nok_index >= Qs.size() ||
          v->nok_value != Qs[v->nok_index].eval(alpha(j), alpha(i)))
        bad[static_cast<std::size_t>(i)] = 1;
    }
  const Graph& g = vs.graph(/*regular_only=*/true);
  Graph pruned(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (g.has_edge(u, v) && !bad[static_cast<std::size_t>(u)] && !bad[static_cast<std::size_t>(v)])
        pruned.add_edge(u, v);
  // W: degree >= n - ts core, shrunk until internally (n-ts)-connected.
  std::vector<bool> inW(static_cast<std::size_t>(n), false);
  // A party is trivially consistent with itself, so it counts towards its
  // own degree (otherwise a clique of the n-ts honest parties could never
  // satisfy deg >= n-ts).
  for (int i = 0; i < n; ++i) inW[static_cast<std::size_t>(i)] = pruned.degree(i) + 1 >= n - ts;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      if (!inW[static_cast<std::size_t>(i)]) continue;
      int deg_in_w = 1;  // self
      for (int j = 0; j < n; ++j)
        if (j != i && inW[static_cast<std::size_t>(j)] && pruned.has_edge(i, j)) ++deg_in_w;
      if (deg_in_w < n - ts) {
        inW[static_cast<std::size_t>(i)] = false;
        changed = true;
      }
    }
  }
  auto star = find_star(pruned.induced(inW), ts);
  if (!star) return std::nullopt;
  wire::StarMsg msg;
  for (int i = 0; i < n; ++i)
    if (inW[static_cast<std::size_t>(i)]) msg.W.push_back(i);
  msg.E = std::move(star->E);
  msg.F = std::move(star->F);
  return msg;
}

bool accept_wef(const VerdictState& vs, const wire::StarMsg& s, int ts) {
  const int n = vs.n();
  const Graph& g = vs.graph(/*regular_only=*/true);
  bool ok = static_cast<int>(s.W.size()) >= n - ts;
  std::vector<bool> inW(static_cast<std::size_t>(n), false);
  for (int w : s.W) inW[static_cast<std::size_t>(w)] = true;
  // No conflicting NOK pair inside W (same index, different values).
  for (int j : s.W)
    for (int k : s.W) {
      if (j >= k) continue;
      const auto& vj = vs.reg(j, k);
      const auto& vk = vs.reg(k, j);
      if (vj && vk && !vj->ok && !vk->ok && vj->nok_index == vk->nok_index &&
          vj->nok_value != vk->nok_value)
        ok = false;
    }
  // Degrees: overall and within W.
  for (int j : s.W) {
    if (!ok) break;
    if (g.degree(j) + 1 < n - ts) ok = false;
    int deg_in_w = 1;  // self
    for (int k : s.W)
      if (k != j && g.has_edge(j, k)) ++deg_in_w;
    if (deg_in_w < n - ts) ok = false;
  }
  // (E,F) is an (n,ts)-star of G[W] (edges within W only).
  if (ok) {
    Graph gw = g.induced(inW);
    for (int e : s.E)
      if (!inW[static_cast<std::size_t>(e)]) ok = false;
    for (int f : s.F)
      if (!inW[static_cast<std::size_t>(f)]) ok = false;
    if (ok) ok = is_star(gw, s.E, s.F, ts);
  }
  return ok;
}

}  // namespace bobw
