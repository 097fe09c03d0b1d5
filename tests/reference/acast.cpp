#include "tests/reference/acast.hpp"

namespace bobw {

Acast::Acast(Party& party, const Addr& addr, int sender, int t, Handler on_output)
    : Instance(party, addr), sender_(sender), t_(t), on_output_(std::move(on_output)) {}

void Acast::start(const Bytes& m) { send_all(kInit, m); }

void Acast::on_message(const Msg& m) {
  switch (m.type) {
    case kInit: {
      if (m.from != sender_ || echoed_) return;
      echoed_ = true;
      send_all(kEcho, m.body);
      return;
    }
    case kEcho: {
      const int c = echoes_.add(m.body, m.from);
      if (!c) return;
      // ⌈(n+t+1)/2⌉ echoes for the same value.
      if (c >= (n() + t_ + 2) / 2) maybe_ready(m.body);
      return;
    }
    case kReady: {
      const int c = readies_.add(m.body, m.from);
      if (!c) return;
      if (c >= t_ + 1) maybe_ready(m.body);
      if (c >= 2 * t_ + 1) accept(m.body);
      return;
    }
    default:
      return;  // unknown type from a Byzantine sender — ignore
  }
}

void Acast::maybe_ready(const Bytes& value) {
  if (readied_) return;
  readied_ = true;
  send_all(kReady, value);
}

void Acast::accept(const Bytes& value) {
  if (output_) return;
  output_ = value;
  if (on_output_) on_output_(value);
}

}  // namespace bobw
