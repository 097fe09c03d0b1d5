// (d,d)-degree symmetric bivariate polynomials over F_p.
//
// Dealers in ΠWPS/ΠVSS embed a degree-ts univariate q(·) into a random
// symmetric bivariate Q(x,y) with Q(0,y) = q(y) and hand row polynomials
// Q(x, α_i) to the parties (paper §2, Lemma 2.2).
#pragma once

#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/field/fp.hpp"
#include "src/field/poly.hpp"

namespace bobw {

class SymBivariate {
 public:
  SymBivariate() = default;

  /// Random symmetric (d,d)-degree polynomial with Q(0,y) = q(y), where
  /// `q` lists q's coefficients, low degree first. Requires |q| <= d+1.
  static SymBivariate random_embedding(int d, std::span<const Fp> q, Rng& rng);
  static SymBivariate random_embedding(int d, const Poly& q, Rng& rng) {
    return random_embedding(d, std::span<const Fp>(q.coeffs()), rng);
  }

  int degree() const { return static_cast<int>(m_) - 1; }

  Fp eval(Fp x, Fp y) const;

  /// Row polynomial f_i(x) = Q(x, at). By symmetry also equals Q(at, y).
  Poly row(Fp at) const;

  /// The d+1 coefficients of row(at), low degree first, written to `out`,
  /// given `at_powers[j] = at^j` for j = 0..d. One power row serves every
  /// bivariate a dealer evaluates at the same point.
  void row_into(const Fp* at_powers, Fp* out) const;

  /// Q(0, y) — the dealer's embedded univariate.
  Poly zero_row() const { return row(Fp(0)); }

  /// Reconstruct the unique symmetric bivariate from >= d+1 pairwise
  /// consistent rows (Lemma 2.1). `ys` are the y-coordinates (α values) and
  /// `rows[i]` the corresponding degree-<=d row polynomials.
  static SymBivariate from_rows(int d, const std::vector<Fp>& ys,
                                const std::vector<Poly>& rows);

 private:
  // Symmetric (d+1)x(d+1) coefficient matrix, row-major: r_[i*m_ + j]
  // multiplies x^i y^j.
  std::size_t m_ = 0;
  std::vector<Fp> r_;
};

}  // namespace bobw
