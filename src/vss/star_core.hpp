// StarCore — the skeleton ΠWPS (paper §4.1, Fig 3) and ΠVSS (§4.2, Fig 4)
// share: the dealer's rows, the OK/NOK verdict broadcast, the dealer's
// (W,E,F) and (E',F') search, the acceptance check, the ΠBA vote and the
// BA-driven choice of share path.
//
// Schedule, relative to the skeleton's ok-verdict start T0:
//   T0            OK/NOK verdicts broadcast (one ΠBC slot per (i,j))
//   T0+T_BC       dealer prunes incorrect-NOK parties, computes W, finds an
//                 (n,ts)-star in G_D[W], broadcasts (W,E,F)
//   T0+2T_BC      parties validate & accept (W,E,F) (regular-mode info
//                 only), then vote in ΠBA: 0 = accepted, 1 = go for an
//                 (n,ta)-star
//   +T_BA         BA 0 -> parties in W output their own row's q_i(0); the
//                 rest complete their share from F.
//                 BA 1 -> dealer hunts an (n,ta)-star (E',F') in the growing
//                 graph and broadcasts it; parties in F' output their own
//                 row's q_i(0), the rest complete from F'.
//
// The two protocols differ only in their second communication layer, which
// the subclasses supply through three hooks (and a fourth, optional one,
// verdict_on(j), for a layer that already holds its values at α_j):
//   * start_second_layer(): what a party does with its rows (ΠWPS sends
//     pairwise points, ΠVSS re-shares them through its own ΠWPS);
//   * values_from(j): the L values Pj sent back through that layer, which
//     the verdict on Pj checks against this party's rows;
//   * complete_from(F): how a party outside W/F' completes its shares from
//     the provider set F (ΠWPS: OEC; ΠVSS: interpolation over ts+1
//     wps-shares).
// All four broadcast layers (verdicts, wef, ΠBA inputs, ★₂) ride groups of
// one BcBank (src/vss/plane.hpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/ba/ba.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/core/timing.hpp"
#include "src/field/bivariate.hpp"
#include "src/sim/instance.hpp"
#include "src/vss/plane.hpp"
#include "src/vss/verdicts.hpp"
#include "src/vss/wire.hpp"

namespace bobw {

class StarCore : public Instance {
 public:
  /// Fires once, with the L shares of this party.
  using Handler = std::function<void(const std::vector<Fp>&)>;

  /// Point-to-point message type of the dealer's rows.
  enum Type { kRows = 0 };

  /// Dealer-side entry: share the L degree-ts polynomials q^(ℓ)(·)
  /// (each is embedded into a fresh random symmetric bivariate polynomial).
  /// Callable at or after construction; rows go out at max(now, base).
  void deal(const std::vector<Poly>& qs);
  /// The same, with q^(ℓ) given as row ℓ of a block (ΠVSS re-sharing its
  /// own rows through its ΠWPS).
  void deal(const RowBlock& qs);
  /// Dealer-side with explicit bivariate polynomials (tests use this to
  /// inject inconsistent sharings).
  void deal_bivariate(std::vector<SymBivariate> Qs);

  /// ΠBC delivery on one of this skeleton's four layers. Public so the
  /// handler of a parent-owned plane can drive the skeleton.
  void on_layer(planelayout::Layer layer, int slot, const std::optional<Bytes>& v,
                bool fallback);

  bool has_output() const { return done_; }
  const std::vector<Fp>& shares() const { return shares_; }
  int dealer() const { return dealer_; }
  Tick base() const { return base_; }
  /// The ΠBA verdict (0 = star path via W, 1 = (n,ta)-star path), if decided.
  const std::optional<bool>& ba_verdict() const { return ba_out_; }
  /// The OK/NOK verdicts this party has received so far.
  const VerdictState& verdicts() const { return verdicts_; }

 protected:
  StarCore(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx, Tick base,
           Handler on_shares);

  /// Connects the four layers to `groups` of `bank` (whose ok group starts
  /// at `ok_start`), builds the ΠBA and schedules the dealer's (W,E,F)
  /// search and the acceptance check. Call once, after the bank exists.
  void attach(BcBank& bank, planelayout::StarGroups groups, Tick ok_start);

  /// Dealer-side, fully adversarial: send arbitrary per-party rows and use
  /// `Qs` for the dealer's own pruning bookkeeping (empty rows: Qs' rows).
  void deal_rows_custom(std::vector<SymBivariate> Qs,
                        std::vector<std::vector<Poly>> rows_per_party);

  void on_rows(const Msg& m);
  void maybe_broadcast_verdict(int j);
  void finish(std::vector<Fp> shares);

  virtual void start_second_layer() = 0;
  virtual const std::optional<std::vector<Fp>>& values_from(int j) const = 0;
  virtual void complete_from(const std::vector<int>& providers) = 0;
  /// The verdict on Pj, taken once, as soon as values_from(j) and the rows
  /// are both in (it is broadcast at the next Δ boundary): values_from(j)
  /// against this party's rows at α_j (wire::compare_points). This default
  /// evaluates the rows.
  virtual wire::Verdict verdict_on(int j);

  int dealer_, L_;
  Ctx ctx_;
  Tick base_;
  RowBlock rows_;  // this party's L rows, once a well-formed set arrived
  bool rows_valid_ = false;
  bool done_ = false;

 private:
  void send_rows();
  void dealer_find_wef();
  void dealer_try_star2();
  void on_verdict(int slot, const std::optional<Bytes>& v, bool fallback);
  void on_wef(const std::optional<Bytes>& v, bool fallback);
  void on_star2(const std::optional<Bytes>& v);
  void accept_check();
  void on_ba(bool b);
  void try_path_w();
  void try_path_star2();
  /// Output my own rows' constant terms if I am in `holders`, else complete
  /// from `providers`.
  void share_via(const std::vector<int>& holders, const std::vector<int>& providers);

  const Graph& graph(bool regular_only) const { return verdicts_.graph(regular_only); }

  Handler on_shares_;

  // Dealer state.
  std::vector<SymBivariate> Qs_;
  std::vector<std::vector<Poly>> custom_rows_;  // adversarial dealing
  bool dealing_ = false;
  bool wef_sent_ = false, star2_sent_ = false;

  // Pi's broadcast verdict on Pj, plus the incrementally maintained
  // consistency graphs.
  VerdictState verdicts_;
  std::vector<char> verdict_broadcast_;  // have I broadcast my verdict on Pj?
  // taken_[j]: my verdict on Pj, from when it is taken to its broadcast;
  // released once all n are out.
  std::unique_ptr<wire::Verdict[]> taken_;
  int verdicts_sent_ = 0;

  BcBank* bank_ = nullptr;
  planelayout::StarGroups groups_{};
  std::unique_ptr<Ba> ba_;

  std::optional<wire::StarMsg> wef_;    // decoded (W,E,F) from dealer (any mode)
  bool wef_regular_ = false;            // ... arrived through regular mode
  std::optional<wire::StarMsg> star2_;  // decoded (E',F')
  std::optional<bool> ba_out_;

  std::vector<Fp> shares_;
};

}  // namespace bobw
