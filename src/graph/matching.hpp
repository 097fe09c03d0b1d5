// Maximum matching in general (non-bipartite) graphs — Edmonds' blossom
// algorithm. The STAR algorithm of [13] (paper §2.1) runs maximum matching on
// the *complement* of the consistency graph, which is a general graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bobw {

/// Undirected simple graph on vertices 0..n-1: one flat array of adjacency
/// bit rows, ⌈n/64⌉ words each (bit v of row u set iff edge {u,v}).
class Graph {
 public:
  explicit Graph(int n);
  int size() const { return n_; }
  void add_edge(int u, int v);
  bool has_edge(int u, int v) const {
    return u != v && (row(u)[static_cast<unsigned>(v) / 64] >> (static_cast<unsigned>(v) % 64)) & 1;
  }
  /// Complement graph (no self loops).
  Graph complement() const;
  int degree(int v) const;
  /// Induced subgraph on `keep` (true = kept); vertex ids preserved, edges to
  /// dropped vertices removed.
  Graph induced(const std::vector<bool>& keep) const;

 private:
  const std::uint64_t* row(int u) const { return &bits_[static_cast<std::size_t>(u) * words_]; }
  std::uint64_t* row(int u) { return &bits_[static_cast<std::size_t>(u) * words_]; }

  int n_;
  std::size_t words_;  // words per row
  std::vector<std::uint64_t> bits_;
};

/// Returns match[v] = partner of v, or -1 if unmatched. Edmonds' blossom
/// algorithm; O(V^3), fine for protocol-sized graphs (n <= a few dozen).
std::vector<int> max_matching(const Graph& g);

}  // namespace bobw
