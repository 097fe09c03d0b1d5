// ΠWPS — the best-of-both-worlds weak polynomial sharing protocol
// (paper §4.1, Fig 3, Theorem 4.8), generalised to L polynomials.
//
// Schedule, relative to the publicly known base time B (Δ-aligned):
//   B            dealer sends row polynomials q_i(x) = Q^(ℓ)(x, α_i)
//   B+Δ          pairwise consistency points exchanged (Δ-aligned)
//   B+2Δ         the StarCore skeleton (src/vss/star_core.hpp) with
//                T0 = B+2Δ: verdicts, (W,E,F), acceptance, ΠBA, share
//                paths; parties outside W/F' complete by OEC over the
//                points of F / F'
//   T_WPS = 2Δ + 2 T_BC + T_BA
//
// Output at party Pi: the L wps-shares q^(ℓ)(α_i) = Q^(ℓ)(0, α_i).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/vss/star_core.hpp"

namespace bobw {

class Wps : public StarCore {
 public:
  /// The four broadcast layers (ok verdicts, wef, ΠBA inputs, ★₂) always
  /// ride four groups of one bank. Without `plane` the instance builds its
  /// own four-group bank (planelayout::kOwnGroups); a parent
  /// protocol that multiplexes many ΠWPS instances over one schedule plane
  /// (ΠVSS: all n children plus its own layers of one sharing) passes its
  /// bank plus this child's group indices, and its group handlers forward
  /// into on_layer(). Verdicts broadcast at T0 = base+2Δ, wef at T0+T_BC,
  /// BA inputs at T0+2T_BC, ★₂ at T0+2T_BC+T_BA.
  Wps(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx, Tick base,
      Handler on_shares, BcBank* plane = nullptr,
      planelayout::StarGroups groups = planelayout::kOwnGroups);

  /// Dealer-side, fully adversarial (fault injection).
  using StarCore::deal_rows_custom;

  void on_message(const Msg& m) override;

 private:
  enum : int { kPoints = 1 };  // pairwise consistency points

  void start_second_layer() override;
  const std::optional<std::vector<Fp>>& values_from(int j) const override {
    return pts_[static_cast<std::size_t>(j)];
  }
  void complete_from(const std::vector<int>& providers) override;
  /// Compares Pj's points with the payload this party sends Pj: no second
  /// evaluation of the rows.
  wire::Verdict verdict_on(int j) override;

  void on_points(const Msg& m);
  void feed_oec(int j);

  std::unique_ptr<BcBank> own_plane_;  // null when riding a parent's plane
  std::vector<std::optional<std::vector<Fp>>> pts_;  // pts_[j]: L values from Pj
  // sent_[j]: the points this party sends Pj (its rows at α_j), built once
  // when the rows are accepted. Each is released as soon as it is both sent
  // and compared for the verdict on Pj, whichever comes last: Pj's points
  // may arrive before this party's rows, so before its own send.
  std::vector<Payload> sent_;
  bool points_sent_ = false;

  // Share completion. One OEC bank over the shared provider α-grid: all L
  // lanes reuse each provider's power row, duplicate scan and head weights.
  std::vector<char> provider_;  // OEC contributor set (F or F')
  std::unique_ptr<OecBank> oec_bank_;
  bool oec_active_ = false;
};

}  // namespace bobw
