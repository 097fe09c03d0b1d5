#include "src/rs/reed_solomon.hpp"

#include <stdexcept>

namespace bobw {

std::optional<Poly> bw_quotient(int d, int e, const std::vector<Fp>& sol) {
  const int nq = d + e + 1;
  std::vector<Fp> qc(sol.begin(), sol.begin() + nq);
  std::vector<Fp> ec(sol.begin() + nq, sol.begin() + nq + e);
  ec.push_back(Fp(1));  // monic
  Poly Q(std::move(qc)), E(std::move(ec));
  // Polynomial division Q / E; remainder must be zero.
  // Synthetic long division.
  std::vector<Fp> num = Q.coeffs();
  const auto& den = E.coeffs();
  if (den.empty()) return std::nullopt;
  int dn = static_cast<int>(num.size()) - 1;
  int dd = static_cast<int>(den.size()) - 1;
  if (dn < dd) {
    // Q identically smaller than E: only consistent if Q == 0 (then q == 0).
    for (auto c : num)
      if (!c.is_zero()) return std::nullopt;
    return Poly();
  }
  std::vector<Fp> quot(static_cast<std::size_t>(dn - dd) + 1, Fp(0));
  Fp lead_inv = den.back().inv();
  for (int i = dn - dd; i >= 0; --i) {
    Fp f = num[static_cast<std::size_t>(i + dd)] * lead_inv;
    quot[static_cast<std::size_t>(i)] = f;
    if (f.is_zero()) continue;
    for (int j = 0; j <= dd; ++j)
      num[static_cast<std::size_t>(i + j)] -= f * den[static_cast<std::size_t>(j)];
  }
  for (auto c : num)
    if (!c.is_zero()) return std::nullopt;  // E does not divide Q
  Poly q(std::move(quot));
  if (q.degree() > d) return std::nullopt;
  return q;
}

std::vector<int> count_agreements_prepowered(
    const std::vector<const Poly*>& qs, const std::vector<const std::vector<Fp>*>& ys,
    const std::vector<std::vector<Fp>>& rows) {
  if (qs.size() != ys.size())
    throw std::invalid_argument("count_agreements_prepowered: candidate/ys size mismatch");
  std::vector<int> counts(qs.size(), 0);
  // One pass over the shared rows; each candidate's evaluation at x_k is a
  // dot product against the cached power row, so the whole check is a
  // rows x coeffs matrix product instead of |qs| independent Horner sweeps.
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto& row = rows[k];
    for (std::size_t c = 0; c < qs.size(); ++c) {
      const auto& coef = qs[c]->coeffs();
      Fp acc(0);
      for (std::size_t j = 0; j < coef.size(); ++j) acc += row[j] * coef[j];
      if (acc == (*ys[c])[k]) ++counts[c];
    }
  }
  return counts;
}

}  // namespace bobw
