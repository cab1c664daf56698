#include "gen/trace.hpp"

#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace rolediet::gen {

std::vector<core::Mutation> effective_trace(const core::RbacDataset& base, std::size_t count,
                                            std::uint64_t seed) {
  std::vector<std::pair<core::Id, core::Id>> user_edges, perm_edges;
  for (std::size_t r = 0; r < base.num_roles(); ++r) {
    for (std::uint32_t u : base.ruam().row(r))
      user_edges.emplace_back(static_cast<core::Id>(r), u);
    for (std::uint32_t p : base.rpam().row(r))
      perm_edges.emplace_back(static_cast<core::Id>(r), p);
  }
  const auto users = static_cast<core::Id>(base.num_users());
  const auto perms = static_cast<core::Id>(base.num_permissions());
  const auto roles = static_cast<core::Id>(base.num_roles());
  if (roles == 0 || users == 0 || perms == 0)
    throw std::invalid_argument("effective_trace: dataset needs a user, a role and a permission");

  util::Xoshiro256 rng(seed);
  core::AuditEngine scratch(base, {});
  std::vector<core::Mutation> trace;
  while (trace.size() < count) {
    const std::uint64_t before = scratch.version();
    core::RbacDelta one;
    switch (trace.size() % 4) {
      case 0:
        if (!user_edges.empty()) {
          const auto& [r, u] = user_edges[rng.bounded(user_edges.size())];
          one.revoke_user(base.role_name(r), base.user_name(u));
          break;
        }
        [[fallthrough]];
      case 1:
        one.assign_user(base.role_name(static_cast<core::Id>(rng.bounded(roles))),
                        base.user_name(static_cast<core::Id>(rng.bounded(users))));
        break;
      case 2:
        if (!perm_edges.empty()) {
          const auto& [r, p] = perm_edges[rng.bounded(perm_edges.size())];
          one.revoke_permission(base.role_name(r), base.permission_name(p));
          break;
        }
        [[fallthrough]];
      default:
        one.grant_permission(base.role_name(static_cast<core::Id>(rng.bounded(roles))),
                             base.permission_name(static_cast<core::Id>(rng.bounded(perms))));
        break;
    }
    scratch.apply(one);
    if (scratch.version() != before) trace.push_back(std::move(one.mutations.front()));
  }
  return trace;
}

}  // namespace rolediet::gen
