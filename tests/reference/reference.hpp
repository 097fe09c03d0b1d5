// Frozen scalar reference paths — verbatim copies of the pre-kernel (PR 2)
// seed implementations of Lagrange interpolation, weight computation and
// online error correction.
//
// These exist ONLY as differential baselines: tests/kernels_test.cpp proves
// the batched kernels bit-identical to them across random inputs, and
// bench_micro measures the kernel speedup against them for the BENCH_*.json
// perf trajectory. Protocol code must never call into bobw::ref.
#pragma once

#include <optional>
#include <vector>

#include "src/field/fp.hpp"
#include "src/field/poly.hpp"
#include "tests/reference/scalar_decoder.hpp"

namespace bobw::ref {

/// Seed Poly::interpolate: per-basis polynomial rebuild, one Fermat
/// inversion per point.
inline Poly interpolate(const std::vector<Fp>& xs, const std::vector<Fp>& ys) {
  const std::size_t k = xs.size();
  Poly acc;
  for (std::size_t j = 0; j < k; ++j) {
    Poly basis(std::vector<Fp>{Fp(1)});
    Fp denom(1);
    for (std::size_t m = 0; m < k; ++m) {
      if (m == j) continue;
      basis = basis * Poly(std::vector<Fp>{-xs[m], Fp(1)});
      denom *= xs[j] - xs[m];
    }
    acc = acc + basis.scaled(ys[j] * denom.inv());
  }
  return acc;
}

/// Seed lagrange_weights: one Fermat inversion per weight.
inline std::vector<Fp> lagrange_weights(const std::vector<Fp>& xs, Fp at) {
  const std::size_t k = xs.size();
  std::vector<Fp> w(k);
  for (std::size_t j = 0; j < k; ++j) {
    Fp num(1), den(1);
    for (std::size_t m = 0; m < k; ++m) {
      if (m == j) continue;
      num *= at - xs[m];
      den *= xs[j] - xs[m];
    }
    w[j] = num * den.inv();
  }
  return w;
}

/// Seed lagrange_eval.
inline Fp lagrange_eval(const std::vector<Fp>& xs, const std::vector<Fp>& ys, Fp at) {
  auto w = ref::lagrange_weights(xs, at);
  Fp acc(0);
  for (std::size_t j = 0; j < xs.size(); ++j) acc += w[j] * ys[j];
  return acc;
}

/// Seed solve_linear: Gauss–Jordan with one Fermat inversion per pivot
/// (normalise-immediately). The deferred-pivot bobw::solve_linear in
/// tests/reference/scalar_decoder.cpp must return exactly this solution (or
/// exactly nullopt) on every input, singular or not.
inline std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> A,
                                                   std::vector<Fp> b) {
  const std::size_t m = A.size();
  const std::size_t n = m == 0 ? 0 : A[0].size();
  std::vector<int> pivot_col_of_row;
  std::size_t row = 0;
  for (std::size_t col = 0; col < n && row < m; ++col) {
    std::size_t sel = row;
    while (sel < m && A[sel][col].is_zero()) ++sel;
    if (sel == m) continue;
    std::swap(A[sel], A[row]);
    std::swap(b[sel], b[row]);
    Fp inv = A[row][col].inv();
    for (std::size_t j = col; j < n; ++j) A[row][j] *= inv;
    b[row] *= inv;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == row || A[r][col].is_zero()) continue;
      Fp f = A[r][col];
      for (std::size_t j = col; j < n; ++j) A[r][j] -= f * A[row][j];
      b[r] -= f * b[row];
    }
    pivot_col_of_row.push_back(static_cast<int>(col));
    ++row;
  }
  for (std::size_t r = row; r < m; ++r)
    if (!b[r].is_zero()) return std::nullopt;
  std::vector<Fp> x(n, Fp(0));  // free variables = 0
  for (std::size_t r = 0; r < pivot_col_of_row.size(); ++r) {
    int pc = pivot_col_of_row[r];
    Fp v = b[r];
    for (std::size_t j = static_cast<std::size_t>(pc) + 1; j < n; ++j)
      v -= A[r][j] * x[j];
    x[static_cast<std::size_t>(pc)] = v;
  }
  return x;
}

/// Seed Oec: rebuilds the full Berlekamp–Welch system (powers + Gaussian
/// elimination) for every candidate error count on every arriving point.
class Oec {
 public:
  Oec(int d, int t) : d_(d), t_(t) {}

  std::optional<Poly> add_point(Fp x, Fp y) {
    if (result_) return std::nullopt;
    for (auto& seen : xs_)
      if (seen == x) return std::nullopt;  // one point per contributor
    xs_.push_back(x);
    ys_.push_back(y);
    return try_decode();
  }

  bool done() const { return result_.has_value(); }
  const std::optional<Poly>& result() const { return result_; }
  int points_received() const { return static_cast<int>(xs_.size()); }

 private:
  std::optional<Poly> try_decode() {
    const int m = points_received();
    if (m < d_ + t_ + 1) return std::nullopt;
    const int e_max = std::min(t_, (m - d_ - 1) / 2);
    for (int e = e_max; e >= 0; --e) {
      auto q = rs_decode(d_, e, xs_, ys_);
      if (q && count_agreements(*q, xs_, ys_) >= d_ + t_ + 1) {
        result_ = q;
        return result_;
      }
    }
    return std::nullopt;
  }

  int d_, t_;
  std::vector<Fp> xs_, ys_;
  std::optional<Poly> result_;
};

}  // namespace bobw::ref
