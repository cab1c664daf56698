// Sharded-engine differential suite: the core::ShardedEngine contract is
// that for every method except kApproxHnsw the merged report's findings are
// byte-identical to the unsharded AuditEngine's at every shard count, thread
// count, row backend, and similarity mode. Work counters and timings are
// explicitly NOT part of the contract (sharding changes how much candidate
// work exists — that delta is what bench_shard measures), so the rendering
// helper zeroes them before comparing.
//
// The degenerate similar-phase configs ride along here because the sharded
// engine reproduces the batch finders' shortcut routing: Hamming t=0 and
// Jaccard dissimilarity 0 collapse to the equality partition, and a Jaccard
// ceiling (scaled threshold >= kJaccardScale) unions every non-empty row for
// the exhaustive methods while MinHash still only reaches band collisions.
//
// Case names end in T1/T8 so the TSan job can select the 8-thread runs with
// --gtest_filter=*T8*.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/metric.hpp"
#include "core/engine.hpp"
#include "core/framework.hpp"
#include "core/methods/prefix_filter.hpp"
#include "core/sharded_engine.hpp"
#include "gen/churn.hpp"
#include "gen/matrix_generator.hpp"
#include "test_helpers.hpp"

namespace rolediet {
namespace {

using core::AuditOptions;
using core::Method;
using core::ShardedEngine;

/// Seed-varied generator workload, the same shape family the unsharded
/// differential suite uses.
linalg::CsrMatrix workload(std::uint64_t seed) {
  gen::MatrixGenParams params;
  params.roles = 120 + (seed % 5) * 40;
  params.cols = 80 + (seed % 3) * 40;
  params.clustered_fraction = 0.15 + 0.05 * static_cast<double>(seed % 4);
  params.max_cluster_size = 4 + seed % 7;
  params.min_row_norm = 1 + seed % 2;
  params.max_row_norm = 8 + seed % 9;
  params.perturb_bits = seed % 3;
  params.ensure_unique_rows = false;
  params.seed = 0x5AADu + seed;
  return gen::generate_matrix(params).matrix;
}

core::RbacDataset dataset_from(const linalg::CsrMatrix& ruam, const linalg::CsrMatrix& rpam) {
  core::RbacDataset d;
  for (std::size_t u = 0; u < ruam.cols(); ++u) d.add_user("U" + std::to_string(u));
  for (std::size_t p = 0; p < rpam.cols(); ++p) d.add_permission("P" + std::to_string(p));
  for (std::size_t r = 0; r < ruam.rows(); ++r) d.add_role("R" + std::to_string(r));
  for (std::size_t r = 0; r < ruam.rows(); ++r)
    for (std::uint32_t u : ruam.row(r)) d.assign_user(static_cast<core::Id>(r), u);
  for (std::size_t r = 0; r < rpam.rows(); ++r)
    for (std::uint32_t p : rpam.row(r)) d.grant_permission(static_cast<core::Id>(r), p);
  return d;
}

/// Report text with wall-clock timings and work counters zeroed — the
/// byte-identity contract covers findings, entity counts, version, and the
/// dataset digest, not how much candidate work produced them.
std::string findings_text(core::AuditReport report) {
  for (core::PhaseTiming* t :
       {&report.structural_time, &report.same_users_time, &report.same_permissions_time,
        &report.similar_users_time, &report.similar_permissions_time}) {
    *t = core::PhaseTiming{};
  }
  for (core::FinderWorkStats* w : {&report.same_users_work, &report.same_permissions_work,
                                   &report.similar_users_work, &report.similar_permissions_work}) {
    *w = core::FinderWorkStats{};
  }
  return report.to_text();
}

struct ShardCase {
  Method method;
  linalg::RowBackend backend;
  std::size_t threads;
  std::size_t shards;
};

std::string case_name(const ::testing::TestParamInfo<ShardCase>& info) {
  const ShardCase& c = info.param;
  std::string name;
  switch (c.method) {
    case Method::kExactDbscan: name = "Exact"; break;
    case Method::kApproxHnsw: name = "Hnsw"; break;
    case Method::kApproxMinhash: name = "Minhash"; break;
    case Method::kRoleDiet: name = "RoleDiet"; break;
  }
  name += c.backend == linalg::RowBackend::kDense ? "Dense" : "Sparse";
  name += "S" + std::to_string(c.shards);
  name += "T" + std::to_string(c.threads);
  return name;
}

std::vector<ShardCase> all_cases() {
  std::vector<ShardCase> cases;
  for (Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
    for (linalg::RowBackend backend : {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
          cases.push_back({method, backend, threads, shards});
        }
      }
    }
  }
  return cases;
}

AuditOptions options_for(const ShardCase& c) {
  AuditOptions options;
  options.method = c.method;
  options.threads = c.threads;
  options.backend = c.backend;
  return options;
}

class ShardedDifferential : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardedDifferential, MergedHammingReportMatchesUnsharded) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{11}}) {
    const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
    for (std::size_t t : {std::size_t{1}, std::size_t{2}}) {
      AuditOptions options = options_for(GetParam());
      options.similarity_threshold = t;
      core::AuditEngine unsharded(dataset, options);
      ShardedEngine sharded(dataset, GetParam().shards, options);
      EXPECT_EQ(findings_text(sharded.reaudit()), findings_text(unsharded.reaudit()))
          << "seed " << seed << ", t=" << t;
    }
  }
}

TEST_P(ShardedDifferential, MergedJaccardReportMatchesUnsharded) {
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}}) {
    const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
    for (double dissimilarity : {0.2, 0.5}) {
      AuditOptions options = options_for(GetParam());
      options.similarity_mode = core::SimilarityMode::kJaccard;
      options.jaccard_dissimilarity = dissimilarity;
      core::AuditEngine unsharded(dataset, options);
      ShardedEngine sharded(dataset, GetParam().shards, options);
      EXPECT_EQ(findings_text(sharded.reaudit()), findings_text(unsharded.reaudit()))
          << "seed " << seed << ", dissimilarity " << dissimilarity;
    }
  }
}

// ------------------------------------------- degenerate similar-phase configs

class DegenerateSimilar : public ::testing::TestWithParam<ShardCase> {};

TEST_P(DegenerateSimilar, HammingZeroThresholdEqualsEqualityPartition) {
  const core::RbacDataset dataset = dataset_from(workload(2), workload(7));
  AuditOptions options = options_for(GetParam());
  options.similarity_threshold = 0;
  core::AuditEngine unsharded(dataset, options);
  const core::AuditReport reference = unsharded.reaudit();
  // t=0 means "identical sets": type 5 must collapse to type 4 exactly.
  EXPECT_EQ(reference.similar_user_groups, reference.same_user_groups);
  EXPECT_EQ(reference.similar_permission_groups, reference.same_permission_groups);

  ShardedEngine sharded(dataset, GetParam().shards, options);
  EXPECT_EQ(findings_text(sharded.reaudit()), findings_text(reference));
}

TEST_P(DegenerateSimilar, JaccardZeroDissimilarityEqualsEqualityPartition) {
  const core::RbacDataset dataset = dataset_from(workload(4), workload(9));
  AuditOptions options = options_for(GetParam());
  options.similarity_mode = core::SimilarityMode::kJaccard;
  options.jaccard_dissimilarity = 0.0;
  core::AuditEngine unsharded(dataset, options);
  const core::AuditReport reference = unsharded.reaudit();
  EXPECT_EQ(reference.similar_user_groups, reference.same_user_groups);
  EXPECT_EQ(reference.similar_permission_groups, reference.same_permission_groups);

  ShardedEngine sharded(dataset, GetParam().shards, options);
  EXPECT_EQ(findings_text(sharded.reaudit()), findings_text(reference));
}

TEST_P(DegenerateSimilar, JaccardCeilingMatchesUnsharded) {
  const core::RbacDataset dataset = dataset_from(workload(6), workload(11));
  AuditOptions options = options_for(GetParam());
  options.similarity_mode = core::SimilarityMode::kJaccard;
  options.jaccard_dissimilarity = 1.0;  // scaled threshold == kJaccardScale
  core::AuditEngine unsharded(dataset, options);
  const core::AuditReport reference = unsharded.reaudit();

  if (GetParam().method != Method::kApproxMinhash) {
    // At the ceiling every pair of non-empty rows is within threshold, so
    // the exhaustive methods produce one group holding every non-empty row.
    ASSERT_EQ(reference.similar_user_groups.group_count(), 1u);
    std::size_t nonempty = 0;
    for (core::Id r = 0; r < dataset.num_roles(); ++r) {
      if (!dataset.users_of_role(r).empty()) ++nonempty;
    }
    EXPECT_EQ(reference.similar_user_groups.roles_in_groups(), nonempty);
  }

  ShardedEngine sharded(dataset, GetParam().shards, options);
  EXPECT_EQ(findings_text(sharded.reaudit()), findings_text(reference));
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ShardedDifferential, ::testing::ValuesIn(all_cases()),
                         case_name);
INSTANTIATE_TEST_SUITE_P(AllConfigs, DegenerateSimilar, ::testing::ValuesIn(all_cases()),
                         case_name);

// ----------------------------------------------------- mutation equivalence

/// Both engines fed the same churn stream stay in lockstep: same ids, same
/// version counter, same findings at every boundary.
TEST(ShardedEngineChurn, StreamedMutationsStayInLockstepWithAuditEngine) {
  gen::ChurnConfig config;
  config.seed = 23;
  config.initial_employees = 60;
  config.years = 1;
  config.days_per_year = 90;
  config.daily_hire_rate = 0.004;
  config.daily_attrition_rate = 0.003;
  config.daily_transfer_rate = 0.004;
  config.daily_sprawl_rate = 0.01;

  AuditOptions options;
  options.method = Method::kRoleDiet;
  core::AuditEngine unsharded(core::RbacDataset{}, options);
  ShardedEngine sharded(core::RbacDataset{}, /*shards=*/3, options);

  gen::ChurnSimulator sim(config);
  while (!sim.done()) {
    const std::size_t day = sim.day();
    const core::RbacDelta delta = sim.next_day();
    unsharded.apply(delta);
    sharded.apply(delta);
    ASSERT_EQ(sharded.version(), unsharded.version()) << "day " << day;
    if (day % 30 == 0 || sim.done()) {
      ASSERT_EQ(findings_text(sharded.reaudit()), findings_text(unsharded.reaudit()))
          << "day " << day;
    }
  }
  EXPECT_GT(sharded.num_roles(), 0u);
}

// ----------------------------------------------------------- unit behaviors

TEST(ShardedEngineUnit, PartitionIsContiguousForInitialRolesRoundRobinAfter) {
  const core::RbacDataset dataset = testing::figure1_dataset();  // 5 roles
  ShardedEngine engine(dataset, /*shards=*/2);
  // Contiguous ranges: shard 0 owns [0, 2), shard 1 owns [2, 5).
  EXPECT_EQ(engine.owner_shard(0), 0u);
  EXPECT_EQ(engine.owner_shard(1), 0u);
  EXPECT_EQ(engine.owner_shard(2), 1u);
  EXPECT_EQ(engine.owner_shard(4), 1u);
  // Later roles round-robin from the first post-construction gid.
  const core::Id r5 = engine.add_role("R06");
  const core::Id r6 = engine.add_role("R07");
  EXPECT_EQ(engine.owner_shard(r5), 0u);
  EXPECT_EQ(engine.owner_shard(r6), 1u);
}

TEST(ShardedEngineUnit, MutatorSemanticsMatchAuditEngine) {
  ShardedEngine engine(testing::figure1_dataset(), /*shards=*/2);
  const std::uint64_t v0 = engine.version();

  // Re-adding an existing name is a no-op returning the existing id.
  EXPECT_EQ(engine.add_user("U01"), engine.find_user("U01").value());
  EXPECT_EQ(engine.version(), v0);

  // Effective edge mutation bumps the version once; repeating it does not.
  const core::Id role = engine.find_role("R01").value();
  const core::Id user = engine.find_user("U04").value();
  EXPECT_TRUE(engine.assign_user(role, user));
  EXPECT_EQ(engine.version(), v0 + 1);
  EXPECT_FALSE(engine.assign_user(role, user));
  EXPECT_EQ(engine.version(), v0 + 1);

  // Unknown ids throw; revoking a missing edge is a false no-op.
  EXPECT_THROW((void)engine.assign_user(999, user), std::out_of_range);
  EXPECT_THROW((void)engine.grant_permission(role, 999), std::out_of_range);
  EXPECT_FALSE(engine.revoke_user(engine.find_role("R03").value(), user));

  // snapshot() round-trips the mutated state: a sharded clone and an
  // unsharded engine built from the snapshot (both fresh at version 0)
  // report identically.
  const core::RbacDataset snap = engine.snapshot();
  ShardedEngine clone(snap, /*shards=*/2);
  core::AuditEngine unsharded(snap, AuditOptions{});
  EXPECT_EQ(findings_text(clone.reaudit()), findings_text(unsharded.reaudit()));
}

TEST(ShardedEngineUnit, ShardWorkCountersSeparateLocalFromCrossWork) {
  const core::RbacDataset dataset = dataset_from(workload(3), workload(8));
  AuditOptions options;
  options.method = Method::kRoleDiet;
  options.similarity_threshold = 2;
  ShardedEngine engine(dataset, /*shards=*/4, options);
  (void)engine.reaudit();
  const core::ShardWorkSnapshot& work = engine.last_shard_work();
  EXPECT_EQ(work.users.local_pairs_evaluated.size(), 4u);
  EXPECT_GT(work.users.exchanged_signatures, 0u);
  // Verified cross matches can never exceed the gathered candidates.
  EXPECT_LE(work.users.cross_matched, work.users.cross_candidates);
}

/// The exchange ships prefix tokens only: at most each non-empty row's
/// prefix_length() columns per axis, whatever the method's local finder.
class ShardExchange : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardExchange, ExchangeShipsAtMostEachRowsPrefixTokens) {
  const core::RbacDataset dataset = dataset_from(workload(3), workload(8));
  const auto prefix_tokens = [](const linalg::CsrMatrix& m,
                                const core::methods::SimilarVerdict& verdict) {
    std::size_t total = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) total += verdict.prefix_length(m.row_size(r));
    return total;
  };
  for (Method method : {Method::kRoleDiet, Method::kExactDbscan}) {
    for (const bool jaccard : {false, true}) {
      for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        if (jaccard && t > 1) continue;
        AuditOptions options;
        options.method = method;
        options.threads = GetParam();
        options.similarity_threshold = t;
        if (jaccard) {
          options.similarity_mode = core::SimilarityMode::kJaccard;
          options.jaccard_dissimilarity = 0.3;
        }
        const auto verdict =
            jaccard ? core::methods::SimilarVerdict::jaccard(core::jaccard_threshold(0.3))
                    : core::methods::SimilarVerdict::hamming(t);
        SCOPED_TRACE(std::string(core::to_string(method)) + (jaccard ? " jaccard" : " t=") +
                     (jaccard ? "" : std::to_string(t)));
        ShardedEngine engine(dataset, /*shards=*/4, options);
        const core::AuditReport report = engine.reaudit();
        const core::ShardWorkSnapshot& work = engine.last_shard_work();
        EXPECT_GT(work.users.exchanged_signatures, 0u);
        EXPECT_LE(work.users.exchanged_signatures, prefix_tokens(dataset.ruam(), verdict));
        EXPECT_LE(work.perms.exchanged_signatures, prefix_tokens(dataset.rpam(), verdict));
        core::AuditEngine unsharded(dataset, options);
        EXPECT_EQ(findings_text(report), findings_text(unsharded.reaudit()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardExchange, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "T" + std::to_string(info.param);
                         });

TEST(ShardedEngineUnit, ZeroShardsRejected) {
  EXPECT_THROW(ShardedEngine(testing::figure1_dataset(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace rolediet
