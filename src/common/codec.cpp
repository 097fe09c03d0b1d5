#include "src/common/codec.hpp"

namespace bobw {

void Writer::bytes(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  put(b.data(), b.size());
}

void Reader::need(std::size_t k) {
  if (buf_.size() - pos_ < k) throw CodecError("truncated message");
}

std::uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

Bytes Reader::bytes() {
  std::uint32_t len = u32();
  need(len);
  Bytes out(buf_.begin() + static_cast<long>(pos_), buf_.begin() + static_cast<long>(pos_ + len));
  pos_ += len;
  return out;
}

std::vector<std::uint64_t> Reader::u64s() {
  std::uint32_t len = u32();
  if (len > remaining() / 8) throw CodecError("oversized u64 vector");
  std::vector<std::uint64_t> out(len);
  words(out.data(), len);
  return out;
}

}  // namespace bobw
