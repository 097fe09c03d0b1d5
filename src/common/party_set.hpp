// PartySet — a set of party ids in [0, n) as a bitset with a maintained
// count. Every threshold rule of the broadcast and agreement layers (ACast's
// t+1 / 2t+1 relays, ΠABA's t+1 / 2t+1 / n−t tallies) counts distinct
// senders, so a set of ids is all the state those tallies need.
//
// Up to kInlineParties ids live inline; a larger universe takes one heap
// block of ⌈n/64⌉ words. There is no cap on n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace bobw {

class PartySet {
 public:
  static constexpr int kInlineParties = 128;

  /// The empty set over the universe [0, n).
  explicit PartySet(int n = 0) : n_(n) {
    if (heap()) heap_ = new std::uint64_t[words()]();
  }
  PartySet(const PartySet& o) : n_(o.n_), count_(o.count_) {
    if (heap()) {
      heap_ = new std::uint64_t[words()];
      std::memcpy(heap_, o.heap_, words() * sizeof(std::uint64_t));
    } else {
      std::memcpy(inline_, o.inline_, sizeof inline_);
    }
  }
  /// Takes the words (or the heap block) whole; `o` is left the empty set
  /// over an empty universe.
  PartySet(PartySet&& o) noexcept
      : n_(std::exchange(o.n_, 0)), count_(std::exchange(o.count_, 0)) {
    std::memcpy(inline_, o.inline_, sizeof inline_);
    o.inline_[0] = o.inline_[1] = 0;
  }
  PartySet& operator=(PartySet o) noexcept {
    swap(o);
    return *this;
  }
  ~PartySet() {
    if (heap()) delete[] heap_;
  }

  /// Adds `p`; false if it was already present.
  bool insert(int p) {
    std::uint64_t& w = data()[static_cast<unsigned>(p) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (static_cast<unsigned>(p) % 64);
    if (w & bit) return false;
    w |= bit;
    ++count_;
    return true;
  }
  bool contains(int p) const {
    return (data()[static_cast<unsigned>(p) / 64] >> (static_cast<unsigned>(p) % 64)) & 1;
  }
  int count() const { return count_; }

 private:
  bool heap() const { return n_ > kInlineParties; }
  std::size_t words() const { return (static_cast<std::size_t>(n_) + 63) / 64; }
  const std::uint64_t* data() const { return heap() ? heap_ : inline_; }
  std::uint64_t* data() { return heap() ? heap_ : inline_; }
  void swap(PartySet& o) noexcept {
    // Swap the raw union bytes: each side's representation moves whole.
    std::uint64_t tmp[2];
    std::memcpy(tmp, inline_, sizeof tmp);
    std::memcpy(inline_, o.inline_, sizeof tmp);
    std::memcpy(o.inline_, tmp, sizeof tmp);
    std::swap(n_, o.n_);
    std::swap(count_, o.count_);
  }

  int n_ = 0;
  int count_ = 0;
  union {
    std::uint64_t inline_[2] = {0, 0};
    std::uint64_t* heap_;
  };
};

}  // namespace bobw
