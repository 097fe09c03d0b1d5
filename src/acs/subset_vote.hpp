// SubsetVote — agreement on a common subset by n parallel ΠBA instances, the
// vote of Ben-Or, Kelmer and Rabin (PODC 1994) that ΠACS (paper §5, Fig 5)
// and ΠPreProcessing (§6.5, Fig 10) both run over their n dealer children.
//
// Π(j)BA starts at a fixed time. A party votes 1 in Π(j)BA the moment Pj's
// child protocol delivers output (Ba buffers an early vote until the
// start); once n−ts BA instances have output 1 it votes 0 in every BA it
// has not voted in. When all n have decided, CS is derived from the
// outputs. The rule is a parameter because the two protocols differ:
//   kAllOnes        every party with BA output 1 (ΠACS, Fig 5);
//   kFirstNMinusTs  the first n−ts of them (preprocessing, Fig 10, which
//                   fixes |CS| = n−ts to size its extraction grid).
//
// Guarantees: |CS| >= n−ts, and every party agrees on CS. Under kAllOnes,
// in a synchronous network, every honest party whose child delivered by
// the BA start is in CS.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/ba/ba.hpp"
#include "src/core/timing.hpp"

namespace bobw {

class SubsetVote {
 public:
  enum class Rule { kAllOnes, kFirstNMinusTs };
  /// Fires once, when CS is fixed.
  using Handler = std::function<void(const std::vector<int>& cs)>;

  /// Builds, for j = 0..n−1, the parent's child j (via `build_child`) and
  /// then Π(j)BA at parent/ba:j starting at `ba_start` — children and BAs
  /// interleaved, in that order. The vote is not a node of its own: its
  /// BAs are children of the parent's route.
  SubsetVote(Party& party, RouteId parent, const Ctx& ctx, Tick ba_start, Rule rule,
             const std::function<void(int j)>& build_child, Handler on_cs);
  // The BA handlers hold `this`.
  SubsetVote(const SubsetVote&) = delete;
  SubsetVote& operator=(const SubsetVote&) = delete;

  /// Pj's child delivered: vote 1 in Π(j)BA.
  void vote_one(int j);

  const std::optional<std::vector<int>>& cs() const { return cs_; }

 private:
  void on_ba_decided(int j, bool b);

  Ctx ctx_;
  Rule rule_;
  Handler on_cs_;
  std::vector<std::unique_ptr<Ba>> ba_;
  std::vector<std::optional<bool>> ba_out_;
  int ones_ = 0, decided_ = 0;
  bool zeros_cast_ = false;
  std::optional<std::vector<int>> cs_;
};

}  // namespace bobw
