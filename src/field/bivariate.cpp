#include "src/field/bivariate.hpp"

#include <stdexcept>

#include "src/field/kernels.hpp"

namespace bobw {

SymBivariate SymBivariate::random_embedding(int d, std::span<const Fp> q, Rng& rng) {
  const std::size_t m = static_cast<std::size_t>(d) + 1;
  if (q.size() > m) throw std::invalid_argument("embedding: deg q > d");
  SymBivariate Q;
  Q.m_ = m;
  Q.r_.assign(m * m, Fp(0));
  // Constraint: Q(0,y) = sum_j r[0][j] y^j = q(y); symmetry fixes r[j][0].
  for (std::size_t j = 0; j < q.size(); ++j) {
    Q.r_[j] = q[j];
    Q.r_[j * m] = q[j];
  }
  // Remaining entries: uniformly random symmetric.
  for (std::size_t i = 1; i < m; ++i)
    for (std::size_t j = i; j < m; ++j) {
      Fp v = Fp::random(rng);
      Q.r_[i * m + j] = v;
      Q.r_[j * m + i] = v;
    }
  return Q;
}

Fp SymBivariate::eval(Fp x, Fp y) const {
  // Horner in x of polynomials in y.
  Fp acc(0);
  for (std::size_t i = m_; i-- > 0;) {
    Fp inner(0);
    for (std::size_t j = m_; j-- > 0;) inner = inner * y + r_[i * m_ + j];
    acc = acc * x + inner;
  }
  return acc;
}

void SymBivariate::row_into(const Fp* at_powers, Fp* out) const {
  // Q(x, at) = sum_i x^i * (sum_j r[i][j] at^j): coefficient i is matrix
  // row i evaluated at `at`.
  for (std::size_t i = 0; i < m_; ++i) out[i] = eval_at_powers(r_.data() + i * m_, at_powers, m_);
}

Poly SymBivariate::row(Fp at) const {
  std::vector<Fp> c(m_);
  row_into(power_row(at, degree()).data(), c.data());
  return Poly(std::move(c));
}

SymBivariate SymBivariate::from_rows(int d, const std::vector<Fp>& ys,
                                     const std::vector<Poly>& rows) {
  if (ys.size() != rows.size() || static_cast<int>(ys.size()) < d + 1)
    throw std::invalid_argument("from_rows: need at least d+1 rows");
  const std::size_t m = static_cast<std::size_t>(d) + 1;
  // For each x-coefficient index i, the values rows[k].coeff(i) are the
  // evaluations at ys[k] of the degree-<=d polynomial c_i(y) = sum_j r_ij y^j.
  SymBivariate Q;
  Q.m_ = m;
  Q.r_.assign(m * m, Fp(0));
  std::vector<Fp> xs(ys.begin(), ys.begin() + static_cast<long>(m));
  // All d+1 coefficient rows interpolate through the SAME y-grid (a fixed
  // public α subset), so one process-wide cached PointSet serves every row
  // of every reconstruction over that grid instead of re-deriving the
  // Lagrange data per row. Bit-identical to the per-row seed path
  // (differential test in tests/kernels_test.cpp).
  auto ps = pointset(xs);
  std::vector<Fp> vals(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < m; ++k) vals[k] = rows[k].coeff(static_cast<int>(i));
    Poly ci = ps->interpolate(vals);
    for (std::size_t j = 0; j < m; ++j) Q.r_[i * m + j] = ci.coeff(static_cast<int>(j));
  }
  return Q;
}

}  // namespace bobw
