// Byte-level message codec. Every protocol payload is serialised through this
// codec so that the simulator can meter honest-party communication in bits —
// the quantity the paper's complexity theorems talk about.
//
// Multi-byte integers are little-endian on the wire. The host is required to
// be little-endian too, so every word is one memcpy rather than a shift loop.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace bobw {

static_assert(std::endian::native == std::endian::little,
              "the wire codec copies words verbatim and needs a little-endian host");

using Bytes = std::vector<std::uint8_t>;

/// A type whose object representation is one 64-bit wire word (std::uint64_t,
/// or Fp, whose canonical value is its only member).
template <class W>
concept Word64 = sizeof(W) == 8 && std::is_trivially_copyable_v<W>;

/// Append-only writer over a byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Pre-sizes the buffer for a payload of known length.
  explicit Writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(&v, sizeof v); }
  void u64(std::uint64_t v) { put(&v, sizeof v); }
  /// Length-prefixed byte string.
  void bytes(const Bytes& b);
  /// Length-prefixed vector of u64 words (used for field elements).
  void u64s(const std::vector<std::uint64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    words(v.data(), v.size());
  }
  /// `k` words with no length prefix.
  template <Word64 W>
  void words(const W* w, std::size_t k) {
    put(w, 8 * k);
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void put(const void* p, std::size_t k) {
    if (k == 0) return;  // `p` may be null; memcpy must not see it
    const std::size_t at = buf_.size();
    buf_.resize(at + k);
    std::memcpy(buf_.data() + at, p, k);
  }
  Bytes buf_;
};

/// Sequential reader with bounds checking; throws CodecError on malformed
/// input (a Byzantine sender may send garbage — honest code must not crash).
struct CodecError : std::runtime_error {
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Reader {
 public:
  explicit Reader(const Bytes& b) : buf_(b) {}

  std::uint8_t u8();
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  Bytes bytes();
  std::vector<std::uint64_t> u64s();
  /// `k` words with no length prefix, copied into `out`.
  template <Word64 W>
  void words(W* out, std::size_t k) {
    need(8 * k);
    if (k == 0) return;  // `out` may be null; memcpy must not see it
    std::memcpy(out, buf_.data() + pos_, 8 * k);
    pos_ += 8 * k;
  }

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  std::size_t remaining() const { return buf_.size() - pos_; }
  template <class T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t k);
  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace bobw
