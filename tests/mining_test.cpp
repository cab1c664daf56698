// Role-mining subsystem tests: UPA class construction, exact maximal-biclique
// enumeration against brute force on hand-built and seeded random bipartite
// graphs (closed sets, supports, emission order on both backends, truncation
// by cap and by deadline), constraint caps (enforcement and infeasibility),
// the bi-objective weight knob's monotonicity guarantee, planted-decomposition
// recovery within the documented slack, determinism across thread counts and
// backends, and equivalence verification on churn and adversarial corpora.
//
// Determinism case names end in T1/T2/T8 so the sanitizer jobs can select
// thread counts with --gtest_filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <bitset>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/consolidation.hpp"
#include "core/engine.hpp"
#include "gen/adversarial.hpp"
#include "gen/churn.hpp"
#include "gen/org_simulator.hpp"
#include "gen/planted.hpp"
#include "io/journal.hpp"
#include "mining/biclique.hpp"
#include "mining/miner.hpp"
#include "mining/upa.hpp"
#include "test_helpers.hpp"
#include "util/execution_context.hpp"
#include "util/prng.hpp"

namespace rolediet::mining {
namespace {

/// Dataset whose effective UPA is exactly `rows`: user i holds a personal
/// role granting rows[i]. Permission ids are the row values.
core::RbacDataset dataset_from_rows(std::size_t num_permissions,
                                    const std::vector<std::vector<core::Id>>& rows) {
  core::RbacDataset d;
  d.add_users(rows.size());
  d.add_permissions(num_permissions);
  for (std::size_t u = 0; u < rows.size(); ++u) {
    const core::Id role = d.add_role("r-" + std::to_string(u));
    d.assign_user(role, static_cast<core::Id>(u));
    for (const core::Id perm : rows[u]) d.grant_permission(role, perm);
  }
  return d;
}

/// Brute-force bound on the permission ids of an oracle graph.
constexpr std::size_t kOraclePerms = 256;
using PermBits = std::bitset<kOraclePerms>;

PermBits bits_of(std::span<const core::Id> row) {
  PermBits bits;
  for (const core::Id perm : row) bits.set(perm);
  return bits;
}

/// Reference enumeration: every distinct non-empty intersection of a
/// non-empty subset of the class rows — the closed sets the enumerator in
/// mining/biclique.cpp must reproduce exactly. One AND per subset: the
/// intersection of a mask extends that of the mask without its lowest class.
std::set<std::vector<core::Id>> brute_force_closed_sets(const UpaClasses& upa) {
  const std::size_t n = upa.num_classes();
  EXPECT_LE(n, 20u) << "brute force is exponential in the class count";
  EXPECT_LE(upa.num_permissions, kOraclePerms);
  std::vector<PermBits> inter(std::size_t{1} << n);
  std::set<std::vector<core::Id>> closed;
  for (std::size_t mask = 1; mask < inter.size(); ++mask) {
    const std::size_t low = static_cast<std::size_t>(std::countr_zero(mask));
    const PermBits row = bits_of(upa.rows.row(low));
    const std::size_t rest = mask & (mask - 1);
    inter[mask] = rest == 0 ? row : inter[rest] & row;
    if (inter[mask].none()) continue;
    std::vector<core::Id> set;
    for (std::size_t perm = 0; perm < kOraclePerms; ++perm) {
      if (inter[mask].test(perm)) set.push_back(static_cast<core::Id>(perm));
    }
    closed.insert(std::move(set));
  }
  return closed;
}

/// Reference support: the classes whose row contains `set`, ascending.
std::vector<std::uint32_t> brute_force_support(const UpaClasses& upa,
                                               const std::vector<core::Id>& set) {
  std::vector<std::uint32_t> support;
  for (std::size_t cls = 0; cls < upa.num_classes(); ++cls) {
    const auto row = upa.rows.row(cls);
    if (std::includes(row.begin(), row.end(), set.begin(), set.end())) {
      support.push_back(static_cast<std::uint32_t>(cls));
    }
  }
  return support;
}

/// Every emitted set is closed — the intersection of the rows of its exact
/// support — and the class rows lead, in class order.
void expect_genuine_closed_sets(const UpaClasses& upa, const CandidateSet& candidates) {
  ASSERT_EQ(candidates.supports.size(), candidates.permission_sets.size());
  ASSERT_EQ(candidates.num_seeds, upa.num_classes());
  for (std::size_t i = 0; i < candidates.permission_sets.size(); ++i) {
    const std::vector<core::Id>& set = candidates.permission_sets[i];
    ASSERT_FALSE(set.empty());
    if (i < candidates.num_seeds) {
      const auto row = upa.rows.row(i);
      EXPECT_EQ(set, std::vector<core::Id>(row.begin(), row.end())) << "seed " << i;
    }
    const std::vector<std::uint32_t> support = brute_force_support(upa, set);
    EXPECT_EQ(candidates.supports[i], support) << "support of candidate " << i;
    ASSERT_FALSE(support.empty());
    const auto first = upa.rows.row(support.front());
    std::vector<core::Id> closure(first.begin(), first.end());
    for (const std::uint32_t cls : support) {
      const auto row = upa.rows.row(cls);
      std::vector<core::Id> next;
      std::set_intersection(closure.begin(), closure.end(), row.begin(), row.end(),
                            std::back_inserter(next));
      closure = std::move(next);
    }
    EXPECT_EQ(closure, set) << "candidate " << i << " is not closed";
  }
}

/// Canonical rendering of a plan's decomposition (role order is part of the
/// determinism contract, so the fingerprint keeps it).
std::string plan_fingerprint(const MiningPlan& plan) {
  std::ostringstream out;
  for (const MinedRole& role : plan.roles) {
    out << role.name << "|p:";
    for (const core::Id perm : role.permissions) out << perm << ",";
    out << "|u:";
    for (const core::Id user : role.users) out << user << ",";
    out << "\n";
  }
  return out.str();
}

/// Largest role count held by any single user in the plan.
std::size_t max_roles_per_user(const MiningPlan& plan) {
  std::map<core::Id, std::size_t> counts;
  for (const MinedRole& role : plan.roles) {
    for (const core::Id user : role.users) ++counts[user];
  }
  std::size_t max = 0;
  for (const auto& [user, count] : counts) max = std::max(max, count);
  return max;
}

std::size_t max_perms_per_role(const MiningPlan& plan) {
  std::size_t max = 0;
  for (const MinedRole& role : plan.roles) max = std::max(max, role.permissions.size());
  return max;
}

void expect_unique_role_names(const MiningPlan& plan) {
  std::set<std::string> names;
  for (const MinedRole& role : plan.roles) {
    EXPECT_TRUE(names.insert(role.name).second) << "duplicate role name: " << role.name;
  }
}

// ---- UPA classes -----------------------------------------------------------

TEST(UpaClasses, Figure1CollapsesUsersIntoWeightedClasses) {
  // Fig. 1 effective rows: U01 -> {P02}; U02, U03 -> {P04, P05} (R02 grants
  // nothing); U04 -> {P04, P05} via R05. Two classes, ordered by smallest
  // member user id.
  const UpaClasses upa = build_upa_classes(rolediet::testing::figure1_dataset());
  ASSERT_EQ(upa.num_classes(), 2u);
  EXPECT_EQ(upa.num_users, 4u);
  EXPECT_EQ(upa.covered_users, 4u);
  EXPECT_EQ(upa.num_permissions, 6u);
  EXPECT_EQ(upa.cells, 1u * 1 + 3u * 2);
  EXPECT_EQ(upa.weight(0), 1u);
  EXPECT_EQ(upa.weight(1), 3u);
  EXPECT_EQ(upa.members[0], (std::vector<core::Id>{0}));
  EXPECT_EQ(upa.members[1], (std::vector<core::Id>{1, 2, 3}));
  const auto row0 = upa.rows.row(0);
  const auto row1 = upa.rows.row(1);
  EXPECT_EQ(std::vector<core::Id>(row0.begin(), row0.end()), (std::vector<core::Id>{1}));
  EXPECT_EQ(std::vector<core::Id>(row1.begin(), row1.end()), (std::vector<core::Id>{3, 4}));
}

// ---- maximal-biclique enumeration ------------------------------------------

TEST(BicliqueEnumeration, MatchesBruteForceOnHandBuiltGraphs) {
  const std::vector<std::pair<std::size_t, std::vector<std::vector<core::Id>>>> graphs = {
      // chain of overlapping rows
      {6, {{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}},
      // nested and crossing sets
      {4, {{0, 1, 2, 3}, {0, 1}, {2, 3}, {0, 2}}},
      // pairwise-disjoint blocks: no intersections at all
      {6, {{0, 1}, {2, 3}, {4, 5}}},
      // crown: every pair of a triangle
      {3, {{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}},
      // duplicate rows collapse into one class first
      {5, {{0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {2, 3, 4}}},
  };
  for (const auto& [num_perms, rows] : graphs) {
    const UpaClasses upa = build_upa_classes(dataset_from_rows(num_perms, rows));
    BicliqueOptions options;
    options.max_candidates = 0;  // unlimited
    const CandidateSet candidates = enumerate_closed_sets(upa, options);
    EXPECT_FALSE(candidates.truncated);
    EXPECT_EQ(candidates.num_seeds, upa.num_classes());
    const std::set<std::vector<core::Id>> expected = brute_force_closed_sets(upa);
    const std::set<std::vector<core::Id>> actual(candidates.permission_sets.begin(),
                                                 candidates.permission_sets.end());
    EXPECT_EQ(actual.size(), candidates.permission_sets.size()) << "duplicate candidate emitted";
    EXPECT_EQ(actual, expected);
  }
}

TEST(BicliqueEnumeration, MatchesBruteForceOnSeededRandomGraph) {
  util::Xoshiro256 rng(42);
  std::vector<std::vector<core::Id>> rows(10);
  for (auto& row : rows) {
    std::set<core::Id> perms;
    const std::size_t size = 1 + rng.bounded(5);
    while (perms.size() < size) perms.insert(static_cast<core::Id>(rng.bounded(12)));
    row.assign(perms.begin(), perms.end());
  }
  const UpaClasses upa = build_upa_classes(dataset_from_rows(12, rows));
  BicliqueOptions options;
  options.max_candidates = 0;
  const CandidateSet candidates = enumerate_closed_sets(upa, options);
  EXPECT_FALSE(candidates.truncated);
  const std::set<std::vector<core::Id>> actual(candidates.permission_sets.begin(),
                                               candidates.permission_sets.end());
  EXPECT_EQ(actual, brute_force_closed_sets(upa));
}

TEST(BicliqueEnumeration, CandidateCapTruncatesToGenuineClosedSets) {
  const std::vector<std::vector<core::Id>> rows = {{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1, 3, 5}};
  const UpaClasses upa = build_upa_classes(dataset_from_rows(6, rows));
  const std::set<std::vector<core::Id>> all = brute_force_closed_sets(upa);

  BicliqueOptions capped;
  capped.max_candidates = upa.num_classes() + 1;
  const CandidateSet candidates = enumerate_closed_sets(upa, capped);
  EXPECT_TRUE(candidates.truncated);
  EXPECT_LE(candidates.permission_sets.size(), capped.max_candidates);
  // Truncation costs completeness only: everything emitted is still closed.
  for (const std::vector<core::Id>& set : candidates.permission_sets) {
    EXPECT_TRUE(all.contains(set));
  }
  expect_genuine_closed_sets(upa, candidates);
}

/// Permission-id universe of the oracle sweep: ids 0..192, so the last
/// packed word holds a single bit.
constexpr std::size_t kSweepPerms = 193;

/// Seeded random graph for the oracle sweep: up to 16 users over ids that
/// straddle the 64-bit word edges (63/64, 127/128), where the prefix mask's
/// boundary lies. Every fourth graph puts {63, 128} in every row, so the root
/// closure is non-empty.
std::vector<std::vector<core::Id>> sweep_rows(std::uint64_t seed) {
  static constexpr core::Id kIds[] = {0,   1,   5,   62,  63,  64,  65, 100,
                                      126, 127, 128, 129, 190, 191, 192};
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<core::Id>> rows(1 + rng.bounded(16));
  for (std::vector<core::Id>& row : rows) {
    for (const core::Id id : kIds) {
      const bool core_id = seed % 4 == 0 && (id == 63 || id == 128);
      if (rng.bounded(100) < 45 || core_id) row.push_back(id);
    }
  }
  return rows;
}

TEST(BicliqueEnumeration, OracleSweepMatchesBruteForceOnBothBackends) {
  std::vector<std::vector<std::vector<core::Id>>> graphs = {
      {},                                                         // zero classes
      {{63, 64, 127, 128}},                                       // one class
      {{63, 64}, {63, 64, 127}, {63, 64, 128}, {0, 63, 64, 192}},  // root closure is a row
      {{62, 63, 127}, {63, 64, 128}, {63, 127, 128, 129}, {64, 127, 128}},
  };
  for (std::uint64_t seed = 1; seed <= 60; ++seed) graphs.push_back(sweep_rows(seed));

  for (std::size_t g = 0; g < graphs.size(); ++g) {
    SCOPED_TRACE("graph " + std::to_string(g));
    const core::RbacDataset dataset = dataset_from_rows(kSweepPerms, graphs[g]);
    const UpaClasses dense = build_upa_classes(dataset, linalg::RowBackend::kDense);
    const UpaClasses sparse = build_upa_classes(dataset, linalg::RowBackend::kSparse);
    ASSERT_TRUE(dense.dense.has_value());
    ASSERT_FALSE(sparse.dense.has_value());
    BicliqueOptions options;
    options.max_candidates = 0;
    const CandidateSet full = enumerate_closed_sets(sparse, options);
    EXPECT_FALSE(full.truncated);

    // The emitted list, supports and closure count do not depend on the backend.
    const CandidateSet from_dense = enumerate_closed_sets(dense, options);
    EXPECT_EQ(from_dense.permission_sets, full.permission_sets);
    EXPECT_EQ(from_dense.supports, full.supports);
    EXPECT_EQ(from_dense.intersections, full.intersections);

    const std::set<std::vector<core::Id>> actual(full.permission_sets.begin(),
                                                 full.permission_sets.end());
    EXPECT_EQ(actual.size(), full.permission_sets.size()) << "duplicate candidate emitted";
    EXPECT_EQ(actual, brute_force_closed_sets(sparse));
    expect_genuine_closed_sets(sparse, full);

    // A list cut by the cap is a prefix of the full list, on either backend.
    const std::size_t total = full.permission_sets.size();
    for (std::size_t cap = std::max<std::size_t>(sparse.num_classes(), 1); cap < total;
         cap += 1 + total / 4) {
      options.max_candidates = cap;
      for (const UpaClasses* upa : {&dense, &sparse}) {
        const CandidateSet capped = enumerate_closed_sets(*upa, options);
        EXPECT_TRUE(capped.truncated) << "cap " << cap;
        ASSERT_EQ(capped.permission_sets.size(), cap);
        EXPECT_TRUE(std::equal(capped.permission_sets.begin(), capped.permission_sets.end(),
                               full.permission_sets.begin()))
            << "cap " << cap;
        EXPECT_TRUE(std::equal(capped.supports.begin(), capped.supports.end(),
                               full.supports.begin()))
            << "cap " << cap;
      }
    }
  }
}

/// 200 users holding 25 of 100 permissions each: far more closed sets than
/// the budgets below can enumerate.
core::RbacDataset dense_random_dataset() {
  util::Xoshiro256 rng(7);
  std::vector<std::vector<core::Id>> rows(200);
  for (std::vector<core::Id>& row : rows) {
    std::set<core::Id> perms;
    while (perms.size() < 25) perms.insert(static_cast<core::Id>(rng.bounded(100)));
    row.assign(perms.begin(), perms.end());
  }
  return dataset_from_rows(100, rows);
}

TEST(BicliqueEnumeration, DeadlineCutLeavesGenuineClosedSets) {
  const UpaClasses upa = build_upa_classes(dense_random_dataset());
  BicliqueOptions options;
  options.max_candidates = 0;
  const util::ExecutionContext ctx(0.05);
  const CandidateSet candidates = enumerate_closed_sets(upa, options, ctx);
  EXPECT_TRUE(candidates.truncated);
  expect_genuine_closed_sets(upa, candidates);
}

TEST(Mining, BudgetExpiringDuringEnumerationStillVerifies) {
  const core::RbacDataset dataset = dense_random_dataset();
  MiningOptions options;
  options.max_candidates = 0;
  options.time_budget_s = 0.05;
  const MiningOutcome outcome = mine(dataset, options);
  EXPECT_TRUE(outcome.plan.stats.enumeration_truncated);
  EXPECT_TRUE(outcome.verified);
  EXPECT_TRUE(core::verify_equivalence(dataset, outcome.migrated));
  expect_unique_role_names(outcome.plan);
}

// ---- planted recovery ------------------------------------------------------

TEST(Mining, RecoversPlantedDecompositionExactly) {
  gen::PlantedParams params;
  params.roles = 12;
  params.users = 240;
  params.perms_per_role = 6;
  params.roles_per_user = 3;
  params.noise_users = 0;
  params.duplicates_per_role = 4;
  params.seed = 3;
  const gen::PlantedDataset planted = gen::generate_planted(params);
  EXPECT_EQ(planted.dataset.num_roles(), 48u);

  const MiningOutcome outcome = mine(planted.dataset, MiningOptions{});
  EXPECT_TRUE(outcome.verified);
  EXPECT_FALSE(outcome.plan.stats.enumeration_truncated);
  // Disjoint blocks with one exclusive seed user each: no equivalent
  // decomposition has fewer than K roles, and the miner must not need more.
  EXPECT_EQ(outcome.plan.stats.roles_after, params.roles);
  expect_unique_role_names(outcome.plan);
}

TEST(Mining, PlantedRecoveryStaysWithinDocumentedSlack) {
  gen::PlantedParams params;
  params.roles = 20;
  params.users = 400;
  params.perms_per_role = 8;
  params.roles_per_user = 3;
  params.noise_users = 15;
  params.duplicates_per_role = 4;
  params.seed = 5;
  const gen::PlantedDataset planted = gen::generate_planted(params);
  EXPECT_EQ(planted.recoverable_bound(), 35u);

  const MiningOutcome outcome = mine(planted.dataset, MiningOptions{});
  EXPECT_TRUE(outcome.verified);
  EXPECT_FALSE(outcome.plan.stats.enumeration_truncated);
  EXPECT_LE(outcome.plan.stats.roles_after, planted.recoverable_bound());
  EXPECT_GE(outcome.plan.stats.roles_after, params.roles);
}

// ---- reduction vs the duplicate-merge baseline -----------------------------

TEST(Mining, BeatsDuplicateMergeBaselineOnOrgWorkload) {
  const gen::OrgDataset org = gen::generate_org(gen::OrgProfile::small());
  core::ConsolidationStats baseline;
  (void)core::consolidate_duplicates(org.dataset, &baseline);

  const MiningOutcome outcome = mine(org.dataset, MiningOptions{});
  EXPECT_TRUE(outcome.verified);
  EXPECT_LE(outcome.plan.stats.roles_after, baseline.roles_after);
  // The paper's duplicate-merge findings hover around a 10% role reduction;
  // mining the same workload must do at least that well.
  EXPECT_GE(outcome.plan.stats.role_reduction(), 0.10);
  expect_unique_role_names(outcome.plan);
}

// ---- constraint caps -------------------------------------------------------

TEST(Mining, CapsAreEnforced) {
  gen::PlantedParams params;
  params.roles = 10;
  params.users = 150;
  params.perms_per_role = 6;
  params.roles_per_user = 3;
  params.noise_users = 5;
  params.duplicates_per_role = 3;
  params.seed = 11;
  const gen::PlantedDataset planted = gen::generate_planted(params);

  MiningOptions options;
  options.max_perms_per_role = 4;
  options.max_roles_per_user = 8;
  const MiningOutcome outcome = mine(planted.dataset, options);
  EXPECT_TRUE(outcome.verified);
  EXPECT_LE(max_perms_per_role(outcome.plan), options.max_perms_per_role);
  EXPECT_LE(max_roles_per_user(outcome.plan), options.max_roles_per_user);
}

TEST(Mining, InfeasibleCapsThrow) {
  // One user with 9 permissions: 2-permission roles need ceil(9/2) = 5 of
  // them, but only 3 are allowed per user.
  const core::RbacDataset dataset =
      dataset_from_rows(9, {{0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 1}});
  MiningOptions options;
  options.max_perms_per_role = 2;
  options.max_roles_per_user = 3;
  EXPECT_THROW((void)plan_mining(dataset, options), std::invalid_argument);
  options.max_roles_per_user = 5;
  EXPECT_TRUE(mine(dataset, options).verified);
}

TEST(Mining, InvalidWeightsThrow) {
  const core::RbacDataset dataset = rolediet::testing::figure1_dataset();
  MiningOptions options;
  options.role_weight = -1.0;
  EXPECT_THROW((void)plan_mining(dataset, options), std::invalid_argument);
  options.role_weight = 0.0;
  options.edge_weight = 0.0;
  EXPECT_THROW((void)plan_mining(dataset, options), std::invalid_argument);
}

// ---- bi-objective weights --------------------------------------------------

TEST(Mining, EdgeWeightKnobIsMonotone) {
  // The plan is the scalarized argmin over a fixed portfolio of greedy
  // passes, so raising edge_weight can never increase the edge count (and,
  // symmetrically, never decrease the role count). The ladder here includes
  // the regime changes observed in development.
  gen::PlantedParams params;
  params.roles = 14;
  params.users = 200;
  params.perms_per_role = 6;
  params.roles_per_user = 3;
  params.noise_users = 6;
  params.duplicates_per_role = 2;
  params.seed = 9;
  const core::RbacDataset planted = gen::generate_planted(params).dataset;
  const gen::OrgDataset org = gen::generate_org(gen::OrgProfile::small());

  for (const core::RbacDataset* dataset : {&planted, &org.dataset}) {
    std::size_t previous_edges = 0;
    std::size_t previous_roles = 0;
    bool first = true;
    for (const double weight : {0.0, 0.05, 0.25, 1.0, 4.0, 16.0}) {
      MiningOptions options;
      options.edge_weight = weight;
      const MiningPlan plan = plan_mining(*dataset, options);
      if (!first) {
        EXPECT_LE(plan.stats.edges_after(), previous_edges) << "edge_weight " << weight;
        EXPECT_GE(plan.stats.roles_after, previous_roles) << "edge_weight " << weight;
      }
      previous_edges = plan.stats.edges_after();
      previous_roles = plan.stats.roles_after;
      first = false;
    }
  }
}

// ---- determinism across threads and backends -------------------------------

struct DeterminismCase {
  linalg::RowBackend backend;
  std::size_t threads;
};

std::string determinism_case_name(const ::testing::TestParamInfo<DeterminismCase>& info) {
  const DeterminismCase& c = info.param;
  return std::string(c.backend == linalg::RowBackend::kDense ? "Dense" : "Sparse") + "T" +
         std::to_string(c.threads);
}

class MiningDeterminismTest : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(MiningDeterminismTest, PlanIsIdenticalToSerialSparseReference) {
  gen::PlantedParams params;
  params.roles = 16;
  params.users = 300;
  params.perms_per_role = 6;
  params.roles_per_user = 3;
  params.noise_users = 8;
  params.duplicates_per_role = 3;
  params.seed = 13;
  const core::RbacDataset dataset = gen::generate_planted(params).dataset;

  MiningOptions reference_options;
  reference_options.backend = linalg::RowBackend::kSparse;
  reference_options.threads = 1;
  reference_options.max_perms_per_role = 5;
  reference_options.edge_weight = 0.25;
  const MiningPlan reference = plan_mining(dataset, reference_options);

  MiningOptions options = reference_options;
  options.backend = GetParam().backend;
  options.threads = GetParam().threads;
  const MiningPlan plan = plan_mining(dataset, options);
  EXPECT_EQ(plan_fingerprint(plan), plan_fingerprint(reference));
  EXPECT_EQ(plan.stats.candidate_pool, reference.stats.candidate_pool);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MiningDeterminismTest,
    ::testing::Values(DeterminismCase{linalg::RowBackend::kDense, 1},
                      DeterminismCase{linalg::RowBackend::kDense, 2},
                      DeterminismCase{linalg::RowBackend::kDense, 8},
                      DeterminismCase{linalg::RowBackend::kSparse, 1},
                      DeterminismCase{linalg::RowBackend::kSparse, 2},
                      DeterminismCase{linalg::RowBackend::kSparse, 8}),
    determinism_case_name);

// ---- operational corpora ---------------------------------------------------

TEST(Mining, ChurnLifecycleDatasetMinesEquivalently) {
  // The compact churn calendar from churn_replay_test: every lifecycle phase
  // in a few thousand mutations.
  gen::ChurnConfig config;
  config.seed = 17;
  config.initial_employees = 80;
  config.years = 3;
  config.days_per_year = 120;
  config.daily_hire_rate = 0.004;
  config.daily_attrition_rate = 0.003;
  config.daily_transfer_rate = 0.004;
  config.daily_sprawl_rate = 0.01;
  config.reorg_burst_days = 6;
  config.reorg_intensity = 0.05;
  config.onboarding_wave_fraction = 0.05;
  config.layoff_fraction = 0.1;

  std::stringstream journal;
  (void)gen::write_churn_journal(journal, config);
  core::AuditEngine engine{core::RbacDataset{}};
  engine.apply(io::read_journal(journal));
  const core::RbacDataset dataset = engine.snapshot();
  ASSERT_GT(dataset.num_users(), 0u);

  MiningOptions options;
  options.threads = 4;
  const MiningOutcome outcome = mine(dataset, options);
  EXPECT_TRUE(outcome.verified);
  EXPECT_LE(outcome.plan.stats.roles_after, outcome.plan.stats.roles_before);
  expect_unique_role_names(outcome.plan);

  options.max_roles_per_user = 12;
  const MiningOutcome capped = mine(dataset, options);
  EXPECT_TRUE(capped.verified);
  EXPECT_LE(max_roles_per_user(capped.plan), options.max_roles_per_user);
}

TEST(Mining, AdversarialCorporaMineEquivalently) {
  gen::AdversarialParams params;
  params.scale = 24;
  params.similarity_threshold = 2;
  params.jaccard_dissimilarity = 0.3;
  for (const gen::AdversarialScenario scenario : gen::kAllAdversarialScenarios) {
    const core::RbacDataset dataset = gen::make_adversarial(scenario, params);
    const MiningOutcome outcome = mine(dataset, MiningOptions{});
    EXPECT_TRUE(outcome.verified) << gen::to_string(scenario);
    expect_unique_role_names(outcome.plan);
  }
}

}  // namespace
}  // namespace rolediet::mining
