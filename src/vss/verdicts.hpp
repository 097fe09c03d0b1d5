// Shared ΠWPS/ΠVSS verdict bookkeeping: the n×n table of broadcast OK/NOK
// verdicts (regular-mode and any-mode views) plus the pairwise consistency
// graphs derived from them, and the two pure functions of that table the
// skeleton needs: the dealer's (W,E,F) search and the parties' acceptance
// check.
//
// The graphs are maintained incrementally — an edge {i,j} is added the moment
// the second OK of the pair lands in a view — instead of rebuilding the full
// O(n²) Graph on every on_verdict/try_path_star2 call (the dealer's star hunt
// and every fallback-driven re-check used to pay a fresh rebuild each time).
#pragma once

#include <optional>
#include <vector>

#include "src/field/bivariate.hpp"
#include "src/graph/matching.hpp"
#include "src/vss/wire.hpp"

namespace bobw {

class VerdictState {
 public:
  explicit VerdictState(int n)
      : n_(n),
        reg_(static_cast<std::size_t>(n),
             std::vector<std::optional<wire::Verdict>>(static_cast<std::size_t>(n))),
        any_(reg_),
        g_reg_(n),
        g_any_(n) {}

  /// Record Pi's broadcast verdict on Pj. Regular-mode arrivals update both
  /// views, fallback arrivals only the any-mode view; first verdict per
  /// (view, i, j) wins, exactly as the per-cell `if (!slot) slot = v` did.
  void record(int i, int j, const wire::Verdict& v, bool fallback) {
    record_into(any_, g_any_, i, j, v);
    if (!fallback) record_into(reg_, g_reg_, i, j, v);
  }

  int n() const { return n_; }

  const std::optional<wire::Verdict>& reg(int i, int j) const {
    return reg_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  const std::optional<wire::Verdict>& any(int i, int j) const {
    return any_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }

  /// The consistency graph of a view: edge {i,j} iff both directed verdicts
  /// are recorded and OK. Kept current on every record().
  const Graph& graph(bool regular_only) const { return regular_only ? g_reg_ : g_any_; }

 private:
  using Table = std::vector<std::vector<std::optional<wire::Verdict>>>;

  void record_into(Table& tbl, Graph& g, int i, int j, const wire::Verdict& v) {
    auto& cell = tbl[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    if (cell) return;
    cell = v;
    if (i == j || !v.ok) return;
    const auto& rev = tbl[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    if (rev && rev->ok) g.add_edge(i, j);
  }

  int n_;
  Table reg_, any_;
  Graph g_reg_, g_any_;
};

/// The dealer's (W,E,F) search over the regular-mode view (Fig 3): drop
/// every edge of a party whose NOK claims a value off the dealer's
/// polynomials `Qs` (or names an index past them), shrink W from the
/// degree >= n−ts core until each member has n−ts partners inside W (self
/// counted), then look for an (n,ts)-star in the pruned graph on W.
/// nullopt while no such star exists.
std::optional<wire::StarMsg> find_wef(const VerdictState& vs, const std::vector<SymBivariate>& Qs,
                                      int ts);

/// A party's check of the dealer's regular-mode (W,E,F) against its own
/// regular-mode view: |W| >= n−ts; no two members of W hold conflicting
/// NOKs (same index, different values); every member of W has degree
/// >= n−ts overall and inside W (self counted); E, F ⊆ W; and (E,F) is an
/// (n,ts)-star of the graph on W.
bool accept_wef(const VerdictState& vs, const wire::StarMsg& s, int ts);

}  // namespace bobw
