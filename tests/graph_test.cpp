#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/common/rng.hpp"
#include "src/field/fp.hpp"
#include "src/graph/matching.hpp"
#include "src/graph/star.hpp"

namespace bobw {
namespace {

int matching_size(const std::vector<int>& match) {
  int c = 0;
  for (int v = 0; v < static_cast<int>(match.size()); ++v)
    if (match[static_cast<std::size_t>(v)] > v) ++c;
  return c;
}

void check_valid_matching(const Graph& g, const std::vector<int>& match) {
  for (int v = 0; v < g.size(); ++v) {
    int m = match[static_cast<std::size_t>(v)];
    if (m == -1) continue;
    EXPECT_EQ(match[static_cast<std::size_t>(m)], v);
    EXPECT_TRUE(g.has_edge(v, m));
  }
}

TEST(Matching, PathGraph) {
  // 0-1-2-3: maximum matching = 2.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  auto m = max_matching(g);
  check_valid_matching(g, m);
  EXPECT_EQ(matching_size(m), 2);
}

TEST(Matching, OddCycleNeedsBlossom) {
  // Triangle + pendant: 0-1, 1-2, 2-0, 2-3. Max matching = 2.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  auto m = max_matching(g);
  check_valid_matching(g, m);
  EXPECT_EQ(matching_size(m), 2);
}

TEST(Matching, PetersenLikeBlossomStress) {
  // Two triangles joined by a bridge: 0-1-2-0, 3-4-5-3, 2-3.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  g.add_edge(2, 3);
  auto m = max_matching(g);
  check_valid_matching(g, m);
  EXPECT_EQ(matching_size(m), 3);
}

TEST(Matching, EmptyAndCompleteGraphs) {
  Graph empty(5);
  EXPECT_EQ(matching_size(max_matching(empty)), 0);
  Graph complete(6);
  for (int u = 0; u < 6; ++u)
    for (int v = u + 1; v < 6; ++v) complete.add_edge(u, v);
  auto m = max_matching(complete);
  check_valid_matching(complete, m);
  EXPECT_EQ(matching_size(m), 3);
}

TEST(Matching, RandomGraphsAgainstBruteForce) {
  // Exhaustive check on small random graphs: compare against brute force.
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));  // 2..7 vertices
    Graph g(n);
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (rng.next_below(100) < 45) {
          g.add_edge(u, v);
          edges.emplace_back(u, v);
        }
    // Brute force maximum matching over edge subsets.
    int best = 0;
    const int ne = static_cast<int>(edges.size());
    for (int mask = 0; mask < (1 << ne); ++mask) {
      std::vector<bool> used(static_cast<std::size_t>(n), false);
      int sz = 0;
      bool ok = true;
      for (int e = 0; e < ne && ok; ++e) {
        if (!(mask & (1 << e))) continue;
        auto [u, v] = edges[static_cast<std::size_t>(e)];
        if (used[static_cast<std::size_t>(u)] || used[static_cast<std::size_t>(v)]) ok = false;
        used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = true;
        ++sz;
      }
      if (ok) best = std::max(best, sz);
    }
    auto m = max_matching(g);
    check_valid_matching(g, m);
    EXPECT_EQ(matching_size(m), best) << "trial " << trial;
  }
}

TEST(Graph, ComplementAndInduced) {
  Graph g(4);
  g.add_edge(0, 1);
  Graph h = g.complement();
  EXPECT_FALSE(h.has_edge(0, 1));
  EXPECT_TRUE(h.has_edge(0, 2));
  EXPECT_TRUE(h.has_edge(2, 3));
  std::vector<bool> keep{true, true, false, true};
  Graph ind = h.induced(keep);
  EXPECT_FALSE(ind.has_edge(0, 2));
  EXPECT_TRUE(ind.has_edge(0, 3));
}

// ---------------------------------------- Graph vs an adjacency matrix ---

using RefGraph = std::vector<std::vector<bool>>;

/// Rank of an n×n matrix over F_p, by Gaussian elimination.
int rank_fp(std::vector<std::vector<Fp>> a) {
  const std::size_t n = a.size();
  int rank = 0;
  for (std::size_t col = 0, row = 0; col < n && row < n; ++col) {
    std::size_t piv = row;
    while (piv < n && a[piv][col] == Fp(0)) ++piv;
    if (piv == n) continue;
    std::swap(a[piv], a[row]);
    const Fp inv = a[row][col].inv();
    for (std::size_t r = row + 1; r < n; ++r) {
      if (a[r][col] == Fp(0)) continue;
      const Fp f = a[r][col] * inv;
      for (std::size_t c = col; c < n; ++c) a[r][c] = a[r][c] - f * a[row][c];
    }
    ++row;
    ++rank;
  }
  return rank;
}

/// Maximum matching size of `ref`, independently of the blossom code: the
/// Tutte matrix with random entries has rank 2ν(G) except with probability
/// at most n/p (Lovász; p = 2^61 − 1).
int tutte_matching_size(const RefGraph& ref, Rng& rng) {
  const std::size_t n = ref.size();
  std::vector<std::vector<Fp>> t(n, std::vector<Fp>(n, Fp(0)));
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = u + 1; v < n; ++v)
      if (ref[u][v]) {
        const Fp x(rng.next_u64());
        t[u][v] = x;
        t[v][u] = Fp(0) - x;
      }
  return rank_fp(std::move(t)) / 2;
}

/// Every vertex pair and degree of `g` agrees with `ref`.
void expect_same_graph(const Graph& g, const RefGraph& ref, const char* what) {
  const int n = static_cast<int>(ref.size());
  ASSERT_EQ(g.size(), n) << what;
  for (int u = 0; u < n; ++u) {
    int deg = 0;
    for (int v = 0; v < n; ++v) {
      const bool e = ref[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
      deg += e ? 1 : 0;
      ASSERT_EQ(g.has_edge(u, v), e) << what << " n " << n << " edge " << u << "-" << v;
    }
    ASSERT_EQ(g.degree(u), deg) << what << " n " << n << " vertex " << u;
  }
}

TEST(Graph, BitRowsMatchAdjacencyMatrixReference) {
  // Word-boundary sizes (64, 65) and a three-word row (130), at sparse,
  // medium and dense edge probabilities.
  Rng rng(2024);
  for (int n : {4, 10, 64, 65, 130}) {
    for (int density : {5, 50, 95}) {
      const auto N = static_cast<std::size_t>(n);
      RefGraph ref(N, std::vector<bool>(N, false));
      Graph g(n);
      for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
          if (static_cast<int>(rng.next_below(100)) < density) {
            ref[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = true;
            ref[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = true;
            g.add_edge(u, v);
          }
      g.add_edge(0, 0);  // self loops are ignored
      expect_same_graph(g, ref, "graph");

      RefGraph comp(N, std::vector<bool>(N, false));
      for (std::size_t u = 0; u < N; ++u)
        for (std::size_t v = 0; v < N; ++v) comp[u][v] = u != v && !ref[u][v];
      expect_same_graph(g.complement(), comp, "complement");

      std::vector<bool> keep(N);
      for (std::size_t v = 0; v < N; ++v) keep[v] = rng.next_below(100) < 70;
      RefGraph ind(N, std::vector<bool>(N, false));
      for (std::size_t u = 0; u < N; ++u)
        for (std::size_t v = 0; v < N; ++v) ind[u][v] = keep[u] && keep[v] && ref[u][v];
      expect_same_graph(g.induced(keep), ind, "induced");

      for (const auto& [graph, adj] :
           {std::pair<Graph, const RefGraph*>{g, &ref}, {g.complement(), &comp}}) {
        const auto match = max_matching(graph);
        int size = 0;
        for (int v = 0; v < n; ++v) {
          const int m = match[static_cast<std::size_t>(v)];
          if (m == -1) continue;
          ASSERT_EQ(match[static_cast<std::size_t>(m)], v);
          ASSERT_TRUE((*adj)[static_cast<std::size_t>(v)][static_cast<std::size_t>(m)]);
          if (m > v) ++size;
        }
        EXPECT_EQ(size, tutte_matching_size(*adj, rng)) << "n " << n << " density " << density;
      }
    }
  }
}

void check_star(const Graph& g, const Star& s, int t) {
  EXPECT_TRUE(is_star(g, s.E, s.F, t));
}

TEST(Star, CliqueYieldsStar) {
  // n=7, t=2, clique of n-t=5 honest parties: star must be found.
  const int n = 7, t = 2;
  Graph g(n);
  for (int u = 0; u < n - t; ++u)
    for (int v = u + 1; v < n - t; ++v) g.add_edge(u, v);
  auto s = find_star(g, t);
  ASSERT_TRUE(s);
  check_star(g, *s, t);
}

TEST(Star, NoCliqueMayFail) {
  // Empty graph: no clique of size n-t, star of the required size cannot
  // exist; the algorithm must not fabricate one.
  const int n = 7, t = 2;
  Graph g(n);
  auto s = find_star(g, t);
  EXPECT_FALSE(s);
}

TEST(Star, ValidatorRejectsBogusStars) {
  const int n = 7, t = 2;
  Graph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  // Too small E.
  EXPECT_FALSE(is_star(g, {0, 1}, {0, 1, 2, 3, 4}, t));
  // E not subset of F.
  EXPECT_FALSE(is_star(g, {0, 1, 2}, {1, 2, 3, 4, 5}, t));
  // Out-of-range and duplicate ids.
  EXPECT_FALSE(is_star(g, {0, 1, 9}, {0, 1, 9, 3, 4}, t));
  EXPECT_FALSE(is_star(g, {0, 1, 1}, {0, 1, 1, 3, 4}, t));
  // A proper star passes.
  EXPECT_TRUE(is_star(g, {0, 1, 2}, {0, 1, 2, 3, 4}, t));
  // Missing edge breaks it.
  Graph g2 = g;
  Graph g3(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (!(u == 0 && v == 4)) g3.add_edge(u, v);
  EXPECT_FALSE(is_star(g3, {0, 1, 2}, {0, 1, 2, 3, 4}, t));
}

TEST(Star, PropertyPlantedCliqueAlwaysFound) {
  // Property sweep (paper §2.1: AlgStar succeeds whenever a clique of size
  // >= n - t exists): plant a clique, add random extra edges, expect a star.
  Rng rng(321);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 6 + static_cast<int>(rng.next_below(6));  // 6..11
    const int t = (n - 1) / 3;
    Graph g(n);
    // Plant clique on a random subset of size n-t.
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(i + 1)))]);
    for (int a = 0; a < n - t; ++a)
      for (int b = a + 1; b < n - t; ++b)
        g.add_edge(perm[static_cast<std::size_t>(a)], perm[static_cast<std::size_t>(b)]);
    // Random noise edges.
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (rng.next_below(100) < 30) g.add_edge(u, v);
    auto s = find_star(g, t);
    ASSERT_TRUE(s) << "trial " << trial << " n=" << n << " t=" << t;
    check_star(g, *s, t);
  }
}

}  // namespace
}  // namespace bobw
