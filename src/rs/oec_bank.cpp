#include "src/rs/oec_bank.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/rs/reed_solomon.hpp"

namespace bobw {

OecBank::OecBank(int d, int t, int L) : d_(d), t_(t), L_(L), active_(L) {
  if (d < 0 || t < 0 || L < 1)
    throw std::invalid_argument("OecBank: need d >= 0, t >= 0, L >= 1");
  lanes_.resize(static_cast<std::size_t>(L_));
  results_.resize(static_cast<std::size_t>(L_));
}

OecBank::Outcome OecBank::add_point(Fp x, std::span<const Fp> ys) {
  if (static_cast<int>(ys.size()) != L_)
    throw std::invalid_argument("OecBank::add_point: lane count mismatch");
  if (active_ == 0) return {OecStatus::kAlreadyDecoded, {}};
  for (Fp seen : xs_)
    if (seen == x) return {OecStatus::kDuplicateX, {}};
  xs_.push_back(x);
  rows_.push_back(power_row(x, d_ + t_));
  for (int l = 0; l < L_; ++l) {
    Lane& lane = lanes_[static_cast<std::size_t>(l)];
    if (!lane.done) lane.ys.push_back(ys[static_cast<std::size_t>(l)]);
  }
  const int m = points_received();
  if (head_ps_) {
    // One shared weight vector turns every lane's agreement check into a
    // dot product with its first d+1 y-values — no per-lane Horner over a
    // materialised interpolant, and no interpolation at all until a caller
    // asks for the Poly.
    const auto& w = head_ps_->weights_at(x);
    for (int l = 0; l < L_; ++l) {
      Lane& lane = lanes_[static_cast<std::size_t>(l)];
      if (!lane.done && head_eval(lane, w) == ys[static_cast<std::size_t>(l)])
        ++lane.head_agree;
    }
  } else if (m == d_ + 1) {
    // xs_ are pairwise distinct by the duplicate check, so construction
    // never throws (see the header for why this is not pointset()-cached).
    head_ps_.emplace(xs_);
    for (int l = 0; l < L_; ++l)
      if (!lanes_[static_cast<std::size_t>(l)].done)
        lanes_[static_cast<std::size_t>(l)].head_agree = d_ + 1;
  }
  Outcome out;
  try_decode(out.decoded);
  std::sort(out.decoded.begin(), out.decoded.end());
  return out;
}

Fp OecBank::head_eval(const Lane& lane, const std::vector<Fp>& weights) const {
  Fp acc(0);
  for (int j = 0; j <= d_; ++j)
    acc += weights[static_cast<std::size_t>(j)] * lane.ys[static_cast<std::size_t>(j)];
  return acc;
}

void OecBank::complete_via_head(int lane) {
  Lane& ln = lanes_[static_cast<std::size_t>(lane)];
  ln.done = true;
  ln.via_head = true;
  --active_;
}

void OecBank::try_decode(std::vector<int>& decoded_now) {
  const int m = points_received();
  if (m < d_ + t_ + 1) return;
  // Same decision schedule as the single-instance seed OEC (ref::Oec in
  // tests/reference/reference.hpp): with r points beyond the minimum, BW with
  // e = floor((m - d - 1) / 2) covers every case where errors <= t and
  // m >= d + t + 1 + errors.
  const int e_max = std::min(t_, (m - d_ - 1) / 2);
  // Whenever m <= d + 2t + 1, any degree-<=d polynomial passing the
  // (d+t+1)-agreement test is unique and the single BW attempt at e_max
  // finds exactly it, so the cheap head check plus one attempt is decision-
  // and output-identical to the seed's descending e-loop (ref::Oec;
  // tests/oec_bank_test.cpp and tests/kernels_test.cpp enforce it).
  const bool unique_regime = m <= d_ + 2 * t_ + 1;
  std::vector<int> pending;
  for (int l = 0; l < L_; ++l)
    if (!lanes_[static_cast<std::size_t>(l)].done) pending.push_back(l);
  if (unique_regime) {
    std::vector<int> need_bw;
    for (int l : pending) {
      if (lanes_[static_cast<std::size_t>(l)].head_agree >= d_ + t_ + 1) {
        complete_via_head(l);
        decoded_now.push_back(l);
      } else {
        need_bw.push_back(l);
      }
    }
    if (need_bw.empty()) return;
    if (e_max == 0) {
      // rs_decode at e = 0 interpolates the first d+1 points and accepts
      // iff ALL m points agree — exactly head_agree == m.
      for (int l : need_bw) {
        if (lanes_[static_cast<std::size_t>(l)].head_agree == m) {
          complete_via_head(l);
          decoded_now.push_back(l);
        }
      }
    } else {
      attempt_bw(e_max, need_bw, decoded_now);
    }
    return;
  }
  // Out-of-regime (more contributors than d + 2t + 1): mirror the seed's
  // full descending loop, batching each error count across the lanes that
  // still need it.
  for (int e = e_max; e >= 0 && !pending.empty(); --e) {
    if (e == 0) {
      std::vector<int> rest;
      for (int l : pending) {
        if (lanes_[static_cast<std::size_t>(l)].head_agree == m) {
          complete_via_head(l);
          decoded_now.push_back(l);
        } else {
          rest.push_back(l);
        }
      }
      pending = std::move(rest);
    } else {
      attempt_bw(e, pending, decoded_now);
    }
  }
}

// Batched Berlekamp–Welch at error count e for the lanes in `pending`.
//
// Lane l's system is [P | -y_l ⊙ W | y_l ⊙ w_e]: the m x (d+e+1) power block
// P and the first e+1 power columns (W, w_e) are IDENTICAL across lanes —
// only the per-lane y-scaling differs. The bank therefore assembles one wide
// matrix [P | stripe_1 | ... | stripe_k] and
//   (a) runs Gauss–Jordan over the shared P columns ONCE, applying each row
//       operation across every stripe simultaneously (pivot selection there
//       depends only on P, so it is the exact operation sequence the
//       per-lane solver would have executed), then
//   (b) finishes each lane on its own (e+1)-wide stripe with deferred
//       cross-multiplied pivots — per-lane row order lives in a permutation
//       vector, no inverse is needed during elimination, and ONE
//       batch_inverse covers every stripe pivot of every lane.
// Pivot columns, the consistency verdict and the extracted solution are
// bit-identical to running solve_linear per lane (the cross-multiplied rows
// stay nonzero scalar multiples of their normalised counterparts), so the
// decoded polynomials match L independent rs_decode calls exactly (both in
// tests/reference/scalar_decoder.hpp).
void OecBank::attempt_bw(int e, std::vector<int>& pending, std::vector<int>& decoded_now) {
  const int m = points_received();
  const int nq = d_ + e + 1;  // Q coefficients
  const int ne = e;           // E coefficients (monic term implied)
  const int nl = static_cast<int>(pending.size());
  const int stripe = ne + 1;  // lane columns + its right-hand side
  const int width = nq + nl * stripe;
  auto uz = [](int v) { return static_cast<std::size_t>(v); };

  std::vector<std::vector<Fp>> M(uz(m), std::vector<Fp>(uz(width), Fp(0)));
  for (int k = 0; k < m; ++k) {
    const auto& row = rows_[uz(k)];
    auto& out = M[uz(k)];
    for (int j = 0; j < nq; ++j) out[uz(j)] = row[uz(j)];
    for (int li = 0; li < nl; ++li) {
      const Fp y = lanes_[uz(pending[uz(li)])].ys[uz(k)];
      const int base = nq + li * stripe;
      for (int j = 0; j < ne; ++j) out[uz(base + j)] = -(y * row[uz(j)]);
      out[uz(base + ne)] = y * row[uz(ne)];
    }
  }

  // Phase (a): shared Gauss–Jordan over the P columns.
  std::vector<int> pivot_col_of_row;
  int row = 0;
  for (int col = 0; col < nq && row < m; ++col) {
    int sel = row;
    while (sel < m && M[uz(sel)][uz(col)].is_zero()) ++sel;
    if (sel == m) continue;
    std::swap(M[uz(sel)], M[uz(row)]);
    const Fp inv = M[uz(row)][uz(col)].inv();
    for (int j = col; j < width; ++j) M[uz(row)][uz(j)] *= inv;
    for (int r = 0; r < m; ++r) {
      if (r == row || M[uz(r)][uz(col)].is_zero()) continue;
      const Fp f = M[uz(r)][uz(col)];
      for (int j = col; j < width; ++j) M[uz(r)][uz(j)] -= f * M[uz(row)][uz(j)];
    }
    pivot_col_of_row.push_back(col);
    ++row;
  }
  const int rp = row;  // rank of the shared block; rows >= rp have zero P-part

  // Phase (b): per-lane elimination on its stripe, deferred pivots.
  struct LaneElim {
    std::vector<int> perm;                    // per-lane physical row order
    std::vector<std::pair<int, int>> pivots;  // (physical row, stripe column)
    int pivot_base = 0;                       // offset into the shared pivot pool
    bool consistent = true;
  };
  std::vector<LaneElim> elims(uz(nl));
  std::vector<Fp> pivot_vals;  // every stripe pivot of every lane
  for (int li = 0; li < nl; ++li) {
    LaneElim& le = elims[uz(li)];
    le.pivot_base = static_cast<int>(pivot_vals.size());
    le.perm.resize(uz(m));
    for (int r = 0; r < m; ++r) le.perm[uz(r)] = r;
    const int base = nq + li * stripe;
    int prow = rp;
    for (int col = 0; col < ne && prow < m; ++col) {
      int sel = prow;
      while (sel < m && M[uz(le.perm[uz(sel)])][uz(base + col)].is_zero()) ++sel;
      if (sel == m) continue;
      std::swap(le.perm[uz(sel)], le.perm[uz(prow)]);
      const auto& prow_ref = M[uz(le.perm[uz(prow)])];
      const Fp p = prow_ref[uz(base + col)];
      for (int r = prow + 1; r < m; ++r) {
        auto& rr = M[uz(le.perm[uz(r)])];
        const Fp f = rr[uz(base + col)];
        if (f.is_zero()) continue;
        for (int j = col; j <= ne; ++j)
          rr[uz(base + j)] = p * rr[uz(base + j)] - f * prow_ref[uz(base + j)];
      }
      le.pivots.emplace_back(le.perm[uz(prow)], col);
      pivot_vals.push_back(p);
      ++prow;
    }
    for (int r = prow; r < m; ++r)
      if (!M[uz(le.perm[uz(r)])][uz(base + ne)].is_zero()) le.consistent = false;
  }
  batch_inverse(pivot_vals);

  // Back-substitution and the classic Q/E completion per lane.
  std::vector<std::optional<Poly>> cands(uz(nl));
  for (int li = 0; li < nl; ++li) {
    const LaneElim& le = elims[uz(li)];
    const int base = nq + li * stripe;
    std::optional<Poly>& q = cands[uz(li)];
    if (le.consistent) {
      std::vector<Fp> sol(uz(nq + ne), Fp(0));
      for (std::size_t k = le.pivots.size(); k-- > 0;) {
        const auto [pr, pc] = le.pivots[k];
        Fp v = M[uz(pr)][uz(base + ne)];
        for (int j = pc + 1; j < ne; ++j) v -= M[uz(pr)][uz(base + j)] * sol[uz(nq + j)];
        sol[uz(nq + pc)] = v * pivot_vals[uz(le.pivot_base) + k];
      }
      for (int r = rp; r-- > 0;) {
        // P-pivot rows: later P pivot columns were Jordan-eliminated and
        // free columns carry solution 0, so only the stripe contributes.
        Fp v = M[uz(r)][uz(base + ne)];
        for (int j = 0; j < ne; ++j) v -= M[uz(r)][uz(base + j)] * sol[uz(nq + j)];
        sol[uz(pivot_col_of_row[uz(r)])] = v;
      }
      q = bw_quotient(d_, e, sol);
    }
  }

  // Agreement counting, batched: every successful lane's candidate is
  // evaluated against the SAME m grid points, so the per-lane Horner sweeps
  // collapse into one shared power-row matrix product over rows_ (each
  // candidate has degree <= d <= d + t, the row width).
  std::vector<const Poly*> cand_ptrs;
  std::vector<const std::vector<Fp>*> cand_ys;
  std::vector<int> cand_lane_idx;
  for (int li = 0; li < nl; ++li) {
    if (!cands[uz(li)]) continue;
    cand_ptrs.push_back(&*cands[uz(li)]);
    cand_ys.push_back(&lanes_[uz(pending[uz(li)])].ys);
    cand_lane_idx.push_back(li);
  }
  std::vector<int> agree = count_agreements_prepowered(cand_ptrs, cand_ys, rows_);
  std::vector<int> agree_of_lane(uz(nl), 0);
  for (std::size_t c = 0; c < cand_lane_idx.size(); ++c)
    agree_of_lane[uz(cand_lane_idx[c])] = agree[c];

  std::vector<int> still_pending;
  for (int li = 0; li < nl; ++li) {
    const int l = pending[uz(li)];
    std::optional<Poly>& q = cands[uz(li)];
    Lane& lane = lanes_[uz(l)];
    if (q && agree_of_lane[uz(li)] >= d_ + t_ + 1) {
      lane.done = true;
      --active_;
      results_[uz(l)] = std::move(*q);
      decoded_now.push_back(l);
    } else {
      still_pending.push_back(l);
    }
  }
  pending = std::move(still_pending);
}

const std::optional<Poly>& OecBank::result(int lane) const {
  auto& slot = results_[static_cast<std::size_t>(lane)];
  const Lane& ln = lanes_[static_cast<std::size_t>(lane)];
  if (!slot && ln.done && ln.via_head) {
    std::vector<Fp> head_ys(ln.ys.begin(), ln.ys.begin() + d_ + 1);
    slot = head_ps_->interpolate(head_ys);
  }
  return slot;
}

Fp OecBank::value(int lane) const {
  const Lane& ln = lanes_[static_cast<std::size_t>(lane)];
  if (!ln.done) throw std::logic_error("OecBank::value: lane not decoded");
  const auto& slot = results_[static_cast<std::size_t>(lane)];
  if (slot) return slot->constant_term();
  return head_eval(ln, head_ps_->weights_at(Fp(0)));
}

}  // namespace bobw
