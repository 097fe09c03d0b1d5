#include "src/vss/plane.hpp"

namespace bobw {
namespace planelayout {

Owner owner_of(int n, int g) {
  if (g < n) return {g, kOk};
  if (g == n) return {-1, kOk};
  if (g > 4 * n) return {-1, static_cast<Layer>(g - 4 * n)};
  return {(g - 1) % n, static_cast<Layer>((g - 1) / n)};
}

BcBank::Group star_group(int n, int dealer, Tick t0, const Ctx& ctx, Layer l,
                         BcBank::Handler handler) {
  std::vector<int> senders;
  Tick start = t0;
  switch (l) {
    case kOk:
      senders.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          senders[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)] = i;
      break;
    case kWef:
      senders = {dealer};
      start = t0 + ctx.T.t_bc;
      break;
    case kBa:
      senders.resize(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) senders[static_cast<std::size_t>(j)] = j;
      start = t0 + 2 * ctx.T.t_bc;
      break;
    case kStar2:
      senders = {dealer};
      start = t0 + 2 * ctx.T.t_bc + ctx.T.t_ba;
      break;
  }
  return {std::move(senders), start, std::move(handler)};
}

std::vector<BcBank::Group> sharing_plane_groups(int n, int dealer, Tick vss_base, const Ctx& ctx,
                                                PlaneHandler handler) {
  const Tick child_ok = vss_base + 3 * ctx.delta;
  const Tick ok_start = vss_base + ctx.delta + ctx.T.t_wps;
  std::vector<BcBank::Group> groups(4 * static_cast<std::size_t>(n) + 4);
  auto place = [&](int g, int owner, Tick t0, Layer l) {
    BcBank::Handler forward;
    if (handler)
      forward = [handler, g](int slot, const std::optional<Bytes>& v, bool fb) {
        handler(g, slot, v, fb);
      };
    groups[static_cast<std::size_t>(g)] = star_group(n, owner, t0, ctx, l, std::move(forward));
  };
  for (int j = 0; j <= n; ++j) {  // j = n: the ΠVSS dealer layer
    const bool child = j < n;
    const StarGroups at = child ? child_groups(n, j) : dealer_groups(n);
    for (int l = 0; l < kLayers; ++l)
      place(at[static_cast<std::size_t>(l)], child ? j : dealer, child ? child_ok : ok_start,
            static_cast<Layer>(l));
  }
  return groups;
}

}  // namespace planelayout
}  // namespace bobw
