// Network message. Every protocol message is addressed to a RouteId (the
// instance's typed route, resolved once at construction — see
// src/sim/route.hpp) plus a small integer type understood by that
// instance. The body is a copy-on-write shared payload so that
// "send to all parties" allocates the bytes once for n recipients.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/codec.hpp"
#include "src/sim/route.hpp"
#include "src/sim/ticks.hpp"

namespace bobw {

/// Immutable-unless-detached shared byte buffer. Copying a Payload is a
/// refcount bump; the mutating accessors (adversaries garbling traffic on
/// the wire) detach first, so in-flight siblings of a send_all fan-out and
/// caller-retained Bytes are never corrupted through an alias.
class Payload {
 public:
  Payload() : data_(shared_empty()) {}
  Payload(Bytes b) : data_(std::make_shared<Bytes>(std::move(b))) {}  // NOLINT(google-explicit-constructor)

  const Bytes& bytes() const { return *data_; }
  operator const Bytes&() const { return *data_; }  // NOLINT(google-explicit-constructor)

  std::size_t size() const { return data_->size(); }
  bool empty() const { return data_->empty(); }
  std::uint8_t operator[](std::size_t i) const { return (*data_)[i]; }
  std::uint8_t front() const { return data_->front(); }
  std::uint8_t back() const { return data_->back(); }
  Bytes::const_iterator begin() const { return data_->begin(); }
  Bytes::const_iterator end() const { return data_->end(); }

  /// Copy-on-write access: detaches from any sharers, then exposes the bytes
  /// for in-place mutation. Deliberately the ONLY mutating accessor — the
  /// copy is visible at the call site, and reads through a non-const Msg&
  /// (adversary inspection) stay detach-free.
  Bytes& mutable_bytes() {
    if (data_.use_count() != 1) data_ = std::make_shared<Bytes>(*data_);
    return *data_;
  }

  /// Identity of the shared buffer: every in-flight copy of one send_all
  /// fan-out (and every re-broadcast that shared the payload) returns the
  /// same pointer. Decode caches key on `.get()` and must RETAIN the
  /// returned shared_ptr for as long as the cache entry lives, so the
  /// address cannot be recycled by a later allocation.
  std::shared_ptr<const Bytes> data() const { return data_; }

  friend bool operator==(const Payload& a, const Payload& b) { return *a.data_ == *b.data_; }
  friend bool operator==(const Payload& a, const Bytes& b) { return *a.data_ == b; }
  friend bool operator==(const Bytes& a, const Payload& b) { return a == *b.data_; }

 private:
  static const std::shared_ptr<Bytes>& shared_empty() {
    static const std::shared_ptr<Bytes> empty = std::make_shared<Bytes>();
    return empty;
  }
  std::shared_ptr<Bytes> data_;
};

struct Msg {
  int from = -1;
  int to = -1;
  RouteId route = kNoRoute;
  int type = 0;
  Payload body;
  Tick sent_at = 0;

  /// Wire size in bits, the unit of the paper's communication bounds.
  /// Header overhead (routing/type) is charged at a flat 8 bytes; instance
  /// ids are simulation artefacts and are not charged.
  std::size_t bits() const { return (body.size() + 8) * 8; }
};

}  // namespace bobw
