// The Fig. 3 workload as an RBAC dataset plus an effective mutation trace:
// the engine, store and service suites check their claims on it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "gen/matrix_generator.hpp"
#include "gen/trace.hpp"

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

/// Effective name-based mutation trace (gen::effective_trace): every entry
/// changes state for sure.
inline std::vector<core::Mutation> build_trace(const core::RbacDataset& base, std::size_t count,
                                               std::uint64_t seed) {
  return gen::effective_trace(base, count, seed);
}

/// Similar-phase verify work of one report (both axes).
inline std::size_t similar_pairs(const core::AuditReport& report) {
  return report.similar_users_work.pairs_evaluated +
         report.similar_permissions_work.pairs_evaluated;
}

}  // namespace rolediet::testing
