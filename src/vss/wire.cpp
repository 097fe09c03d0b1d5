#include "src/vss/wire.hpp"

#include <algorithm>
#include <set>

namespace bobw::wire {

namespace {
constexpr std::size_t kWord = 8;

/// Every word read into `xs` is a canonical field element.
bool canonical(std::span<const Fp> xs) {
  return std::all_of(xs.begin(), xs.end(), [](Fp x) { return x.value() < Fp::kP; });
}
}  // namespace

Bytes encode_rows(const RowBlock& rows) {
  const std::size_t m = rows.width();
  Writer w(4 + rows.rows() * (4 + kWord * m));
  w.u32(static_cast<std::uint32_t>(rows.rows()));
  for (std::size_t l = 0; l < rows.rows(); ++l) {
    w.u32(static_cast<std::uint32_t>(m));
    w.words(rows.row(l).data(), m);
  }
  return w.take();
}

std::optional<RowBlock> decode_rows(const Bytes& b, int L, int d) {
  if (L < 0 || d < 0) return std::nullopt;
  const std::size_t rows = static_cast<std::size_t>(L), m = static_cast<std::size_t>(d) + 1;
  if (b.size() != 4 + rows * (4 + kWord * m)) return std::nullopt;
  Reader r(b);
  if (r.u32() != rows) return std::nullopt;
  RowBlock out(rows, m);
  for (std::size_t l = 0; l < rows; ++l) {
    if (r.u32() != m) return std::nullopt;
    r.words(out.row(l).data(), m);
    if (!canonical(out.row(l))) return std::nullopt;
  }
  return out;
}

Bytes encode_points(const std::vector<Fp>& pts) {
  Writer w(4 + kWord * pts.size());
  w.u32(static_cast<std::uint32_t>(pts.size()));
  w.words(pts.data(), pts.size());
  return w.take();
}

Bytes encode_row_points(const RowBlock& rows, Fp at) {
  std::vector<Fp> pts(rows.rows());
  eval_rows(rows, at, pts.data());
  return encode_points(pts);
}

std::optional<std::vector<Fp>> decode_points(const Bytes& b, int L) {
  if (L < 0 || b.size() != 4 + kWord * static_cast<std::size_t>(L)) return std::nullopt;
  Reader r(b);
  if (r.u32() != static_cast<std::uint32_t>(L)) return std::nullopt;
  std::vector<Fp> pts(static_cast<std::size_t>(L));
  r.words(pts.data(), pts.size());
  if (!canonical(pts)) return std::nullopt;
  return pts;
}

Bytes encode_verdict(const Verdict& v) {
  Writer w;
  w.u8(v.ok ? 1 : 0);
  if (!v.ok) {
    w.u32(v.nok_index);
    w.u64(v.nok_value.value());
  }
  return w.take();
}

std::optional<Verdict> decode_verdict(const Bytes& b) {
  try {
    Reader r(b);
    Verdict v;
    std::uint8_t flag = r.u8();
    if (flag > 1) return std::nullopt;
    v.ok = flag == 1;
    if (!v.ok) {
      v.nok_index = r.u32();
      std::uint64_t raw = r.u64();
      if (raw >= Fp::kP) return std::nullopt;
      v.nok_value = Fp(raw);
    }
    if (!r.exhausted()) return std::nullopt;
    return v;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

namespace {
void put_ids(Writer& w, const std::vector<int>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (int v : ids) w.u32(static_cast<std::uint32_t>(v));
}
bool get_ids(Reader& r, int n, std::vector<int>& out) {
  std::uint32_t k = r.u32();
  if (k > static_cast<std::uint32_t>(n)) return false;
  std::set<int> seen;
  out.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    int v = static_cast<int>(r.u32());
    if (v < 0 || v >= n || !seen.insert(v).second) return false;
    out.push_back(v);
  }
  return true;
}
}  // namespace

Bytes encode_star(const StarMsg& s) {
  Writer w;
  put_ids(w, s.W);
  put_ids(w, s.E);
  put_ids(w, s.F);
  return w.take();
}

std::optional<StarMsg> decode_star(const Bytes& b, int n) {
  try {
    Reader r(b);
    StarMsg s;
    if (!get_ids(r, n, s.W) || !get_ids(r, n, s.E) || !get_ids(r, n, s.F)) return std::nullopt;
    if (!r.exhausted()) return std::nullopt;
    return s;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

}  // namespace bobw::wire
