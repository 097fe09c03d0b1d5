#include "src/field/kernels.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace bobw {

void batch_inverse(std::vector<Fp>& xs) {
  const std::size_t k = xs.size();
  if (k == 0) return;
  // Montgomery's trick over the non-zero entries: prefix products, one
  // inversion of the total product, then unwind. Zeros pass through
  // untouched (Fermat's 0^(p-2) is also 0).
  std::vector<Fp> prefix(k);
  Fp acc(1);
  for (std::size_t i = 0; i < k; ++i) {
    prefix[i] = acc;
    if (!xs[i].is_zero()) acc *= xs[i];
  }
  Fp inv = acc.inv();
  for (std::size_t i = k; i-- > 0;) {
    if (xs[i].is_zero()) continue;
    Fp x = xs[i];
    xs[i] = inv * prefix[i];
    inv *= x;
  }
}

PointSet::PointSet(std::vector<Fp> xs) : xs_(std::move(xs)) {
  const std::size_t k = xs_.size();
  // bary_j = 1 / prod_{m != j} (xs_j - xs_m). A zero denominator means a
  // duplicate point (F_p is an integral domain) — reject it here rather than
  // silently inverting zero downstream.
  bary_.assign(k, Fp(1));
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t m = 0; m < k; ++m) {
      if (m == j) continue;
      bary_[j] *= xs_[j] - xs_[m];
    }
    if (k > 1 && bary_[j].is_zero())
      throw std::invalid_argument("PointSet: duplicate x-coordinate");
  }
  batch_inverse(bary_);
  // Master polynomial N(x) = prod_j (x - xs_j), built incrementally.
  master_.assign(1, Fp(1));
  for (std::size_t j = 0; j < k; ++j) {
    master_.push_back(Fp(0));
    for (std::size_t i = master_.size() - 1; i > 0; --i)
      master_[i] = master_[i - 1] - xs_[j] * master_[i];
    master_[0] = -xs_[j] * master_[0];
  }
}

const std::vector<Fp>& PointSet::weights_at(Fp at) const {
  std::lock_guard<std::mutex> lk(weight_mu_);
  auto it = weight_cache_.find(at.value());
  if (it != weight_cache_.end()) return it->second;
  const std::size_t k = xs_.size();
  // w_j = bary_j * prod_{m != j} (at - xs_m), via prefix/suffix products —
  // no inversion at query time. Degenerates to the indicator vector when
  // `at` coincides with a set point.
  std::vector<Fp> w(k, Fp(0));
  std::vector<Fp> prefix(k + 1, Fp(1)), suffix(k + 1, Fp(1));
  for (std::size_t m = 0; m < k; ++m) prefix[m + 1] = prefix[m] * (at - xs_[m]);
  for (std::size_t m = k; m-- > 0;) suffix[m] = suffix[m + 1] * (at - xs_[m]);
  for (std::size_t j = 0; j < k; ++j) w[j] = bary_[j] * prefix[j] * suffix[j + 1];
  return weight_cache_.emplace(at.value(), std::move(w)).first->second;
}

Poly PointSet::interpolate(const std::vector<Fp>& ys) const {
  if (ys.size() != xs_.size())
    throw std::invalid_argument("PointSet::interpolate: size mismatch");
  const std::size_t k = xs_.size();
  // sum_j (ys_j * bary_j) * N(x)/(x - xs_j); each quotient comes from one
  // O(k) synthetic division of the precomputed master polynomial.
  std::vector<Fp> coeffs(k, Fp(0));
  std::vector<Fp> quot(k, Fp(0));
  for (std::size_t j = 0; j < k; ++j) {
    // Synthetic division N / (x - xs_j): exact since N(xs_j) = 0.
    Fp carry(0);
    for (std::size_t i = k; i-- > 0;) {
      carry = master_[i + 1] + xs_[j] * carry;
      quot[i] = carry;
    }
    Fp scale = ys[j] * bary_[j];
    for (std::size_t i = 0; i < k; ++i) coeffs[i] += scale * quot[i];
  }
  return Poly(std::move(coeffs));
}

Fp PointSet::eval(const std::vector<Fp>& ys, Fp at) const {
  if (ys.size() != xs_.size()) throw std::invalid_argument("PointSet::eval: size mismatch");
  const auto& w = weights_at(at);
  Fp acc(0);
  for (std::size_t j = 0; j < ys.size(); ++j) acc += w[j] * ys[j];
  return acc;
}

std::shared_ptr<const PointSet> pointset(const std::vector<Fp>& xs) {
  // The protocol only ever uses a handful of point sets (prefixes/subsets of
  // the α's plus the extraction grids), but an adversarial caller could pump
  // arbitrarily many keys through here — evict wholesale past a bound.
  // shared_ptr keeps evicted sets alive for holders.
  static std::mutex mu;
  static std::map<std::vector<std::uint64_t>, std::shared_ptr<const PointSet>> cache;
  constexpr std::size_t kMaxEntries = 1 << 12;
  std::vector<std::uint64_t> key = to_words(xs);
  std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto ps = std::make_shared<const PointSet>(xs);
  if (cache.size() >= kMaxEntries) cache.clear();
  cache.emplace(std::move(key), ps);
  return ps;
}

std::vector<Fp> power_row(Fp x, int width) {
  std::vector<Fp> row(static_cast<std::size_t>(width) + 1);
  Fp xp(1);
  for (std::size_t j = 0; j < row.size(); ++j) {
    row[j] = xp;
    xp *= x;
  }
  return row;
}

Fp dot(const Fp* a, const Fp* b, std::size_t k) {
  Fp acc(0);
  for (std::size_t lo = 0; lo < k; lo += detail::kDotFold)
    acc += Fp::reduce(detail::dot_unreduced(a + lo, b + lo, std::min(detail::kDotFold, k - lo)));
  return acc;
}

void eval_rows(const RowBlock& rows, Fp at, Fp* out) {
  const std::size_t m = rows.width();
  const std::vector<Fp> pw = power_row(at, static_cast<int>(m) - 1);
  for (std::size_t l = 0; l < rows.rows(); ++l) out[l] = eval_at_powers(rows.row(l).data(), pw.data(), m);
}

}  // namespace bobw
