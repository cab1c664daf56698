// The Fig. 3 workload as an RBAC dataset plus an effective mutation trace:
// the engine, store and service suites check their claims on it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "gen/matrix_generator.hpp"
#include "util/prng.hpp"

namespace rolediet::testing {

/// Fig. 3 shape (§IV-A): 1,000 users and 1,000 permissions, cluster
/// proportion 0.2, at most 10 identical roles per cluster. RUAM and RPAM use
/// different seeds so the four type-4/5 phases see distinct inputs.
inline core::RbacDataset fig3_dataset(std::size_t roles) {
  gen::MatrixGenParams params;
  params.roles = roles;
  params.cols = 1000;
  params.clustered_fraction = 0.2;
  params.max_cluster_size = 10;
  params.seed = 3000 + roles;
  const linalg::CsrMatrix ruam = gen::generate_matrix(params).matrix;
  params.seed = 7000 + roles;
  const linalg::CsrMatrix rpam = gen::generate_matrix(params).matrix;

  core::RbacDataset dataset;
  dataset.add_users(ruam.cols());
  dataset.add_permissions(rpam.cols());
  dataset.add_roles(roles);
  for (std::size_t r = 0; r < roles; ++r) {
    for (std::uint32_t u : ruam.row(r)) dataset.assign_user(static_cast<core::Id>(r), u);
    for (std::uint32_t p : rpam.row(r)) dataset.grant_permission(static_cast<core::Id>(r), p);
  }
  return dataset;
}

/// Effective name-based mutation trace: alternating revocations of existing
/// edges and fresh additions, each validated against a scratch engine so
/// every entry changes state for sure.
inline std::vector<core::Mutation> build_trace(const core::RbacDataset& base, std::size_t count,
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

  util::Xoshiro256 rng(seed);
  core::AuditEngine scratch(base, {});
  std::vector<core::Mutation> trace;
  while (trace.size() < count) {
    const std::uint64_t before = scratch.version();
    core::RbacDelta one;
    switch (trace.size() % 4) {
      case 0: {
        const auto& [r, u] = user_edges[rng.bounded(user_edges.size())];
        one.revoke_user(base.role_name(r), base.user_name(u));
        break;
      }
      case 1:
        one.assign_user(base.role_name(static_cast<core::Id>(rng.bounded(roles))),
                        base.user_name(static_cast<core::Id>(rng.bounded(users))));
        break;
      case 2: {
        const auto& [r, p] = perm_edges[rng.bounded(perm_edges.size())];
        one.revoke_permission(base.role_name(r), base.permission_name(p));
        break;
      }
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

/// Similar-phase verify work of one report (both axes).
inline std::size_t similar_pairs(const core::AuditReport& report) {
  return report.similar_users_work.pairs_evaluated +
         report.similar_permissions_work.pairs_evaluated;
}

}  // namespace rolediet::testing
