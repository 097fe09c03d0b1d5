#include "tests/reference/scalar_decoder.hpp"

#include <stdexcept>

#include "src/field/kernels.hpp"
#include "src/rs/reed_solomon.hpp"

namespace bobw {

std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> A,
                                            std::vector<Fp> b) {
  const std::size_t m = A.size();
  const std::size_t n = m == 0 ? 0 : A[0].size();
  // Forward elimination with deferred pivots: rows below the pivot are
  // cross-multiplied (row_r <- p * row_r - f * row_piv), so no inverse is
  // needed during elimination. Each row stays a nonzero scalar multiple of
  // the row the seed's normalise-immediately scheme produces, which keeps
  // pivot positions, the consistency verdict and the extracted solution
  // bit-identical to ref::solve_linear while the per-pivot Fermat
  // exponentiations collapse into one batch_inverse sweep.
  std::vector<std::size_t> pivot_row, pivot_col;
  std::vector<Fp> pivot_vals;
  std::size_t row = 0;
  for (std::size_t col = 0; col < n && row < m; ++col) {
    std::size_t sel = row;
    while (sel < m && A[sel][col].is_zero()) ++sel;
    if (sel == m) continue;
    std::swap(A[sel], A[row]);
    std::swap(b[sel], b[row]);
    const Fp p = A[row][col];
    for (std::size_t r = row + 1; r < m; ++r) {
      const Fp f = A[r][col];
      if (f.is_zero()) continue;
      for (std::size_t j = col; j < n; ++j) A[r][j] = p * A[r][j] - f * A[row][j];
      b[r] = p * b[r] - f * b[row];
    }
    pivot_row.push_back(row);
    pivot_col.push_back(col);
    pivot_vals.push_back(p);
    ++row;
  }
  // Inconsistency check: zero row with non-zero rhs.
  for (std::size_t r = row; r < m; ++r)
    if (!b[r].is_zero()) return std::nullopt;
  batch_inverse(pivot_vals);
  std::vector<Fp> x(n, Fp(0));  // free variables = 0
  for (std::size_t k = pivot_vals.size(); k-- > 0;) {
    const std::size_t pr = pivot_row[k], pc = pivot_col[k];
    Fp v = b[pr];
    for (std::size_t j = pc + 1; j < n; ++j) v -= A[pr][j] * x[j];
    x[pc] = v * pivot_vals[k];
  }
  return x;
}

std::optional<Poly> rs_decode(int d, int e, const std::vector<Fp>& xs,
                              const std::vector<Fp>& ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("rs_decode: size mismatch");
  std::vector<std::vector<Fp>> rows;
  if (e > 0) {
    rows.reserve(xs.size());
    for (Fp x : xs) rows.push_back(power_row(x, d + e));
  }
  return rs_decode_prepowered(d, e, xs, ys, rows);
}

std::optional<Poly> rs_decode_prepowered(int d, int e, const std::vector<Fp>& xs,
                                         const std::vector<Fp>& ys,
                                         const std::vector<std::vector<Fp>>& rows) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("rs_decode_prepowered: size mismatch");
  const int m = static_cast<int>(xs.size());
  if (e < 0 || m < d + 1) return std::nullopt;
  if (e == 0) {
    // Plain interpolation on the first d+1 points, then verify all.
    std::vector<Fp> x0(xs.begin(), xs.begin() + d + 1);
    std::vector<Fp> y0(ys.begin(), ys.begin() + d + 1);
    Poly q = Poly::interpolate(x0, y0);
    if (count_agreements(q, xs, ys) == m && q.degree() <= d) return q;
    return std::nullopt;
  }
  // Berlekamp–Welch: find E(x) monic of degree e and Q(x) of degree <= d+e,
  // with Q(x_k) = y_k * E(x_k) for all k. Unknowns: E coefficients
  // e_0..e_{e-1} (monic leading term), Q coefficients q_0..q_{d+e}.
  // Equations: one per point, assembled from the cached power rows.
  const int nq = d + e + 1;
  const int ne = e;  // e_0..e_{e-1}
  std::vector<std::vector<Fp>> A(static_cast<std::size_t>(m),
                                 std::vector<Fp>(static_cast<std::size_t>(nq + ne), Fp(0)));
  std::vector<Fp> rhs(static_cast<std::size_t>(m), Fp(0));
  for (int k = 0; k < m; ++k) {
    const auto& row = rows[static_cast<std::size_t>(k)];
    const Fp yk = ys[static_cast<std::size_t>(k)];
    for (int j = 0; j < nq; ++j)
      A[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          row[static_cast<std::size_t>(j)];
    // -y_k * (e_0 + e_1 x + ... + e_{e-1} x^{e-1}) on the lhs,
    // y_k * x^e on the rhs (monic term).
    for (int j = 0; j < ne; ++j)
      A[static_cast<std::size_t>(k)][static_cast<std::size_t>(nq + j)] =
          -(yk * row[static_cast<std::size_t>(j)]);
    rhs[static_cast<std::size_t>(k)] = yk * row[static_cast<std::size_t>(ne)];
  }
  auto sol = solve_linear(std::move(A), std::move(rhs));
  if (!sol) return std::nullopt;
  return bw_quotient(d, e, *sol);
}

int count_agreements(const Poly& q, const std::vector<Fp>& xs,
                     const std::vector<Fp>& ys) {
  int cnt = 0;
  for (std::size_t k = 0; k < xs.size(); ++k)
    if (q.eval(xs[k]) == ys[k]) ++cnt;
  return cnt;
}

}  // namespace bobw
