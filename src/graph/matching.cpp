#include "src/graph/matching.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>

namespace bobw {

Graph::Graph(int n) : n_(n), words_(0) {
  if (n < 0) throw std::invalid_argument("Graph: negative size");
  words_ = (static_cast<std::size_t>(n) + 63) / 64;
  bits_.assign(static_cast<std::size_t>(n) * words_, 0);
}

void Graph::add_edge(int u, int v) {
  if (u == v) return;
  row(u)[static_cast<unsigned>(v) / 64] |= std::uint64_t{1} << (static_cast<unsigned>(v) % 64);
  row(v)[static_cast<unsigned>(u) / 64] |= std::uint64_t{1} << (static_cast<unsigned>(u) % 64);
}

Graph Graph::complement() const {
  Graph h(n_);
  // Bits past n in a row's last word stay clear.
  const unsigned tail = static_cast<unsigned>(n_) % 64;
  const std::uint64_t last = tail ? (std::uint64_t{1} << tail) - 1 : ~std::uint64_t{0};
  for (int u = 0; u < n_; ++u) {
    const std::uint64_t* from = row(u);
    std::uint64_t* to = h.row(u);
    for (std::size_t w = 0; w < words_; ++w) to[w] = ~from[w];
    to[words_ - 1] &= last;
    to[static_cast<unsigned>(u) / 64] &= ~(std::uint64_t{1} << (static_cast<unsigned>(u) % 64));
  }
  return h;
}

int Graph::degree(int v) const {
  int d = 0;
  const std::uint64_t* r = row(v);
  for (std::size_t w = 0; w < words_; ++w) d += std::popcount(r[w]);
  return d;
}

Graph Graph::induced(const std::vector<bool>& keep) const {
  Graph h(n_);
  std::vector<std::uint64_t> mask(words_, 0);
  for (int v = 0; v < n_; ++v)
    if (keep[static_cast<std::size_t>(v)])
      mask[static_cast<unsigned>(v) / 64] |= std::uint64_t{1} << (static_cast<unsigned>(v) % 64);
  for (int u = 0; u < n_; ++u) {
    if (!keep[static_cast<std::size_t>(u)]) continue;
    const std::uint64_t* from = row(u);
    std::uint64_t* to = h.row(u);
    for (std::size_t w = 0; w < words_; ++w) to[w] = from[w] & mask[w];
  }
  return h;
}

namespace {

// Standard Edmonds blossom implementation (contract blossoms to their base).
class Blossom {
 public:
  explicit Blossom(const Graph& g)
      : g_(g), n_(g.size()), match_(static_cast<std::size_t>(n_), -1) {}

  std::vector<int> run() {
    for (int v = 0; v < n_; ++v)
      if (match_[static_cast<std::size_t>(v)] == -1) augment_from(v);
    return match_;
  }

 private:
  int lca(int a, int b) {
    std::vector<bool> used(static_cast<std::size_t>(n_), false);
    // Walk up from a marking bases; then walk up from b.
    int x = a;
    for (;;) {
      x = base_[static_cast<std::size_t>(x)];
      used[static_cast<std::size_t>(x)] = true;
      if (match_[static_cast<std::size_t>(x)] == -1) break;
      x = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(x)])];
    }
    int y = b;
    for (;;) {
      y = base_[static_cast<std::size_t>(y)];
      if (used[static_cast<std::size_t>(y)]) return y;
      y = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(y)])];
    }
  }

  void mark_path(int v, int b, int child) {
    while (base_[static_cast<std::size_t>(v)] != b) {
      int mv = match_[static_cast<std::size_t>(v)];
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(v)])] = true;
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(mv)])] = true;
      parent_[static_cast<std::size_t>(v)] = child;
      child = mv;
      v = parent_[static_cast<std::size_t>(mv)];
    }
  }

  int find_path(int root) {
    parent_.assign(static_cast<std::size_t>(n_), -1);
    base_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) base_[static_cast<std::size_t>(i)] = i;
    std::vector<bool> used(static_cast<std::size_t>(n_), false);
    used[static_cast<std::size_t>(root)] = true;
    std::queue<int> q;
    q.push(root);
    while (!q.empty()) {
      int v = q.front();
      q.pop();
      for (int to = 0; to < n_; ++to) {
        if (!g_.has_edge(v, to)) continue;
        if (base_[static_cast<std::size_t>(v)] == base_[static_cast<std::size_t>(to)] ||
            match_[static_cast<std::size_t>(v)] == to)
          continue;
        if (to == root ||
            (match_[static_cast<std::size_t>(to)] != -1 &&
             parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(to)])] != -1)) {
          // Odd cycle: contract blossom.
          int curbase = lca(v, to);
          blossom_.assign(static_cast<std::size_t>(n_), false);
          mark_path(v, curbase, to);
          mark_path(to, curbase, v);
          for (int i = 0; i < n_; ++i) {
            if (blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(i)])]) {
              base_[static_cast<std::size_t>(i)] = curbase;
              if (!used[static_cast<std::size_t>(i)]) {
                used[static_cast<std::size_t>(i)] = true;
                q.push(i);
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == -1) {
          parent_[static_cast<std::size_t>(to)] = v;
          if (match_[static_cast<std::size_t>(to)] == -1) return to;  // augmenting path found
          int mt = match_[static_cast<std::size_t>(to)];
          used[static_cast<std::size_t>(mt)] = true;
          q.push(mt);
        }
      }
    }
    return -1;
  }

  void augment_from(int root) {
    int v = find_path(root);
    if (v == -1) return;
    while (v != -1) {
      int pv = parent_[static_cast<std::size_t>(v)];
      int ppv = match_[static_cast<std::size_t>(pv)];
      match_[static_cast<std::size_t>(v)] = pv;
      match_[static_cast<std::size_t>(pv)] = v;
      v = ppv;
    }
  }

  const Graph& g_;
  int n_;
  std::vector<int> match_, parent_, base_;
  std::vector<bool> blossom_;
};

}  // namespace

std::vector<int> max_matching(const Graph& g) { return Blossom(g).run(); }

}  // namespace bobw
