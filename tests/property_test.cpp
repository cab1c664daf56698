// Property-based tests: randomized inputs with fixed seeds, checking the
// invariants DESIGN.md commits to:
//  - the role-diet method returns exactly the same canonical groups as
//    exact DBSCAN on every input (same + similar, several thresholds);
//  - every HNSW group is a subset of some exact group (distances are exact,
//    only recall can be lost);
//  - the Hamming set identity d = |Ri| + |Rj| - 2 g holds between the sparse
//    and dense kernels;
//  - duplicate-role consolidation preserves every user's permission set;
//  - generated matrices meet their postconditions.
#include <gtest/gtest.h>

#include "core/consolidation.hpp"
#include "core/framework.hpp"
#include "core/methods/minhash_lsh.hpp"
#include "core/remediation.hpp"
#include "io/csv.hpp"
#include "core/methods/approx.hpp"
#include "core/methods/cooccurrence.hpp"
#include "core/methods/exact.hpp"
#include "gen/matrix_generator.hpp"
#include "linalg/convert.hpp"
#include "util/prng.hpp"
#include "test_helpers.hpp"

namespace rolediet {
namespace {

using core::RoleGroups;
using core::methods::DbscanGroupFinder;
using core::methods::HnswGroupFinder;
using core::methods::RoleDietGroupFinder;

/// Random sparse matrix with planted duplicate and near-duplicate rows.
linalg::CsrMatrix random_matrix(std::uint64_t seed, std::size_t rows, std::size_t cols,
                                std::size_t max_norm) {
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  std::vector<std::vector<std::uint32_t>> contents(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double roll = rng.uniform01();
    if (r > 0 && roll < 0.25) {
      // Exact duplicate of a random earlier row.
      contents[r] = contents[rng.bounded(r)];
    } else if (r > 0 && roll < 0.45) {
      // Near-duplicate: flip one position of an earlier row.
      contents[r] = contents[rng.bounded(r)];
      const auto pos = static_cast<std::uint32_t>(rng.bounded(cols));
      auto it = std::lower_bound(contents[r].begin(), contents[r].end(), pos);
      if (it != contents[r].end() && *it == pos) {
        contents[r].erase(it);
      } else {
        contents[r].insert(it, pos);
      }
    } else if (roll < 0.50) {
      // Leave the row empty (type-2 shape).
    } else {
      const std::size_t norm = 1 + rng.bounded(max_norm);
      for (std::size_t p : rng.sample_indices(cols, norm))
        contents[r].push_back(static_cast<std::uint32_t>(p));
      std::sort(contents[r].begin(), contents[r].end());
    }
    for (std::uint32_t c : contents[r]) entries.emplace_back(static_cast<std::uint32_t>(r), c);
  }
  return linalg::CsrMatrix::from_pairs(rows, cols, std::move(entries));
}

class RandomizedAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedAgreement, RoleDietMatchesDbscanOnSame) {
  const auto m = random_matrix(GetParam(), 120, 80, 6);
  const RoleDietGroupFinder ours;
  const DbscanGroupFinder exact;
  EXPECT_EQ(ours.find_same(m), exact.find_same(m));
}

TEST_P(RandomizedAgreement, BothSameStrategiesMatchDbscan) {
  const auto m = random_matrix(GetParam() ^ 0xABCDEF, 90, 60, 5);
  const RoleDietGroupFinder by_matrix{
      {.same_strategy = RoleDietGroupFinder::SameStrategy::kCooccurrenceMatrix}};
  const DbscanGroupFinder exact;
  EXPECT_EQ(by_matrix.find_same(m), exact.find_same(m));
}

TEST_P(RandomizedAgreement, RoleDietMatchesDbscanOnSimilar) {
  const auto m = random_matrix(GetParam() ^ 0x5555, 100, 70, 5);
  const RoleDietGroupFinder ours;
  const DbscanGroupFinder exact;
  for (std::size_t t : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(ours.find_similar(m, t), exact.find_similar(m, t)) << "threshold " << t;
  }
}

TEST_P(RandomizedAgreement, RoleDietMatchesDbscanOnJaccard) {
  const auto m = random_matrix(GetParam() ^ 0xBEEF, 100, 70, 6);
  const RoleDietGroupFinder ours;
  const DbscanGroupFinder exact;
  for (std::size_t scaled : {0u, 100'000u, 333'333u, 500'000u, 999'999u}) {
    EXPECT_EQ(ours.find_similar_jaccard(m, scaled), exact.find_similar_jaccard(m, scaled))
        << "scaled threshold " << scaled;
  }
}

TEST_P(RandomizedAgreement, HnswGroupsAreSubsetsOfExactGroups) {
  const auto m = random_matrix(GetParam() ^ 0x777, 150, 100, 6);
  const RoleDietGroupFinder ours;
  const HnswGroupFinder approx;
  for (std::size_t t : {0u, 1u}) {
    const RoleGroups truth = ours.find_similar(m, t);
    const RoleGroups found = approx.find_similar(m, t);
    // Map each role to its true group index.
    std::vector<std::ptrdiff_t> true_group(m.rows(), -1);
    for (std::size_t g = 0; g < truth.groups.size(); ++g) {
      for (std::size_t member : truth.groups[g])
        true_group[member] = static_cast<std::ptrdiff_t>(g);
    }
    for (const auto& group : found.groups) {
      ASSERT_GE(group.size(), 2u);
      const std::ptrdiff_t expected = true_group[group.front()];
      ASSERT_NE(expected, -1) << "HNSW grouped a role DBSCAN left ungrouped";
      for (std::size_t member : group) {
        EXPECT_EQ(true_group[member], expected)
            << "HNSW merged roles across true groups at t=" << t;
      }
    }
  }
}

TEST_P(RandomizedAgreement, ApproximateJaccardGroupsAreSubsets) {
  const auto m = random_matrix(GetParam() ^ 0x8888, 120, 80, 6);
  const RoleDietGroupFinder ours;
  for (std::size_t scaled : {0u, 250'000u}) {
    const RoleGroups truth = ours.find_similar_jaccard(m, scaled);
    std::vector<std::ptrdiff_t> true_group(m.rows(), -1);
    for (std::size_t g = 0; g < truth.groups.size(); ++g) {
      for (std::size_t member : truth.groups[g])
        true_group[member] = static_cast<std::ptrdiff_t>(g);
    }
    const HnswGroupFinder hnsw;
    const core::methods::MinHashGroupFinder minhash;
    for (const RoleGroups& found :
         {hnsw.find_similar_jaccard(m, scaled), minhash.find_similar_jaccard(m, scaled)}) {
      for (const auto& group : found.groups) {
        const std::ptrdiff_t expected = true_group[group.front()];
        ASSERT_NE(expected, -1);
        for (std::size_t member : group) {
          EXPECT_EQ(true_group[member], expected)
              << "approximate method merged across true jaccard groups";
        }
      }
    }
  }
}

TEST_P(RandomizedAgreement, HammingIdentitySparseVsDense) {
  const auto m = random_matrix(GetParam() ^ 0x9999, 60, 200, 10);
  const linalg::BitMatrix dense = linalg::to_dense(m);
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t a = rng.bounded(m.rows());
    const std::size_t b = rng.bounded(m.rows());
    const std::size_t g = m.row_intersection(a, b);
    EXPECT_EQ(m.row_hamming(a, b), m.row_size(a) + m.row_size(b) - 2 * g);
    EXPECT_EQ(m.row_hamming(a, b), dense.row_hamming(a, b));
    EXPECT_EQ(g, dense.row_intersection(a, b));
  }
}

TEST_P(RandomizedAgreement, ConsolidationPreservesUserPermissions) {
  util::Xoshiro256 rng(GetParam() ^ 0x1234);
  core::RbacDataset d;
  d.add_users(50);
  d.add_permissions(60);
  d.add_roles(80);
  for (core::Id r = 0; r < 80; ++r) {
    const std::size_t users = rng.bounded(6);
    const std::size_t perms = rng.bounded(6);
    for (std::size_t k = 0; k < users; ++k)
      d.assign_user(r, static_cast<core::Id>(rng.bounded(50)));
    for (std::size_t k = 0; k < perms; ++k)
      d.grant_permission(r, static_cast<core::Id>(rng.bounded(60)));
  }
  core::ConsolidationStats stats;
  const core::RbacDataset slim = core::consolidate_duplicates(d, &stats);
  EXPECT_TRUE(core::verify_equivalence(d, slim));
  EXPECT_EQ(stats.roles_after + stats.removed_same_users + stats.removed_same_permissions,
            stats.roles_before);
}

TEST_P(RandomizedAgreement, RemediationThenConsolidationPreservesAccess) {
  // The full diet pipeline on random datasets: remediation (types 1-3,
  // including entity removal) followed by duplicate consolidation must keep
  // every surviving user's permission set intact through BOTH steps.
  util::Xoshiro256 rng(GetParam() ^ 0x4444);
  core::RbacDataset d;
  d.add_users(40);
  d.add_permissions(50);
  d.add_roles(70);
  for (core::Id r = 0; r < 70; ++r) {
    for (std::size_t k = rng.bounded(5); k > 0; --k)
      d.assign_user(r, static_cast<core::Id>(rng.bounded(40)));
    for (std::size_t k = rng.bounded(5); k > 0; --k)
      d.grant_permission(r, static_cast<core::Id>(rng.bounded(50)));
  }
  const core::AuditReport report = core::audit(d, {.detect_similar = false});
  core::RemediationPolicy policy;
  policy.remove_standalone_users = true;
  policy.remove_standalone_permissions = true;
  const core::RemediationPlan plan = core::plan_remediation(d, report, policy);
  const core::RbacDataset cleaned = core::apply_remediation(d, plan);
  ASSERT_TRUE(core::verify_remediation(d, cleaned, plan));

  core::ConsolidationStats stats;
  const core::RbacDataset slim = core::consolidate_duplicates(cleaned, &stats);
  EXPECT_TRUE(core::verify_equivalence(cleaned, slim));
  // Transitive check against the original, by name, for surviving users.
  for (std::size_t u = 0; u < slim.num_users(); ++u) {
    const core::Id after_id = static_cast<core::Id>(u);
    const auto before_id = d.find_user(slim.user_name(after_id));
    ASSERT_TRUE(before_id.has_value());
    std::vector<std::string> before_names;
    for (core::Id p : d.permissions_of_user(*before_id))
      before_names.push_back(d.permission_name(p));
    std::vector<std::string> after_names;
    for (core::Id p : slim.permissions_of_user(after_id))
      after_names.push_back(slim.permission_name(p));
    std::sort(before_names.begin(), before_names.end());
    std::sort(after_names.begin(), after_names.end());
    EXPECT_EQ(before_names, after_names) << "user " << slim.user_name(after_id);
  }
}

TEST_P(RandomizedAgreement, MinHashFindSameMatchesExact) {
  const auto m = random_matrix(GetParam() ^ 0x2222, 150, 90, 6);
  const core::methods::MinHashGroupFinder minhash;
  const RoleDietGroupFinder exact;
  // Identical sets always collide in every band: exact duplicate recall.
  EXPECT_EQ(minhash.find_same(m), exact.find_same(m));
}

TEST_P(RandomizedAgreement, CsvEscapeParseRoundTrip) {
  util::Xoshiro256 rng(GetParam() ^ 0x6666);
  const char alphabet[] = "abc,\"\n\t xyz'\\;|";
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> fields(1 + rng.bounded(4));
    for (auto& field : fields) {
      const std::size_t len = rng.bounded(12);
      for (std::size_t i = 0; i < len; ++i)
        field.push_back(alphabet[rng.bounded(sizeof(alphabet) - 1)]);
    }
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line.push_back(',');
      line += io::escape_csv_field(fields[i]);
    }
    EXPECT_EQ(testing::csv_fields(line), fields) << "line: " << line;
  }
}

TEST_P(RandomizedAgreement, GeneratorPostconditions) {
  const gen::GeneratedMatrix g = gen::generate_matrix(
      {.roles = 300, .cols = 250, .min_row_norm = 2, .max_row_norm = 8, .seed = GetParam()});
  // Planted groups are non-overlapping and members share identical rows.
  std::vector<bool> used(g.matrix.rows(), false);
  for (const auto& group : g.planted.groups) {
    for (std::size_t member : group) {
      EXPECT_FALSE(used[member]);
      used[member] = true;
      EXPECT_TRUE(g.matrix.rows_equal(group.front(), member));
    }
  }
  // Detection recovers exactly the planted groups.
  const RoleDietGroupFinder finder;
  EXPECT_EQ(finder.find_same(g.matrix), g.planted);
}

TEST_P(RandomizedAgreement, ParallelGroupsFormPartitionAndSkipEmptyRows) {
  // Invariants of every parallelized finder path: group membership is a
  // partition (no role in two groups, every group has >= 2 members) and
  // roles with empty rows are never grouped (they are type-2 findings).
  const auto m = random_matrix(GetParam() ^ 0x9A37, 140, 90, 6);
  auto check_partition = [&](const RoleGroups& groups, const char* what) {
    std::vector<bool> seen(m.rows(), false);
    for (const auto& group : groups.groups) {
      EXPECT_GE(group.size(), 2u) << what;
      for (std::size_t member : group) {
        ASSERT_LT(member, m.rows()) << what;
        EXPECT_FALSE(seen[member]) << what << ": role " << member << " in two groups";
        seen[member] = true;
        EXPECT_GT(m.row_size(member), 0u) << what << ": empty role " << member << " grouped";
      }
    }
  };
  const RoleDietGroupFinder diet({.threads = 4});
  const DbscanGroupFinder dbscan({.threads = 4});
  core::methods::HnswGroupFinder::Options hnsw_options;
  hnsw_options.threads = 4;
  const HnswGroupFinder hnsw(hnsw_options);
  core::methods::MinHashGroupFinder::Options minhash_options;
  minhash_options.lsh.threads = 4;
  const core::methods::MinHashGroupFinder minhash(minhash_options);

  check_partition(diet.find_same(m), "role-diet same");
  check_partition(diet.find_similar(m, 2), "role-diet similar");
  check_partition(diet.find_similar_jaccard(m, 250'000), "role-diet jaccard");
  check_partition(dbscan.find_similar(m, 2), "dbscan similar");
  check_partition(hnsw.find_similar(m, 1), "hnsw similar");
  check_partition(minhash.find_similar(m, 1), "minhash similar");
}

TEST_P(RandomizedAgreement, WorkCountersAreConsistentAndThreadInvariant) {
  const auto m = random_matrix(GetParam() ^ 0xC027, 130, 80, 6);
  auto check = [&](const core::GroupFinder& finder, const RoleGroups& groups,
                   const char* what) {
    const core::FinderWorkStats work = finder.last_work();
    EXPECT_LE(work.pairs_matched, work.pairs_evaluated) << what;
    EXPECT_LE(work.merges, work.pairs_matched) << what;
    EXPECT_EQ(work.merge_conflicts, work.pairs_matched - work.merges) << what;
    EXPECT_EQ(work.merges, groups.roles_in_groups() - groups.group_count()) << what;
  };
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const RoleDietGroupFinder diet({.threads = threads});
    check(diet, diet.find_same(m), "role-diet same");
    check(diet, diet.find_similar(m, 2), "role-diet similar");
    const DbscanGroupFinder dbscan({.threads = threads});
    check(dbscan, dbscan.find_similar(m, 1), "dbscan similar");
    const HnswGroupFinder hnsw;
    check(hnsw, hnsw.find_same(m), "hnsw same");
    const core::methods::MinHashGroupFinder minhash;
    check(minhash, minhash.find_similar(m, 1), "minhash similar");
  }
  // The counters themselves are deterministic: identical at 1 and 4 threads.
  const RoleDietGroupFinder serial({.threads = 1});
  const RoleDietGroupFinder parallel({.threads = 4});
  (void)serial.find_similar(m, 2);
  (void)parallel.find_similar(m, 2);
  const core::FinderWorkStats a = serial.last_work();
  const core::FinderWorkStats b = parallel.last_work();
  EXPECT_EQ(a.rows_processed, b.rows_processed);
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
  EXPECT_EQ(a.pairs_matched, b.pairs_matched);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.merge_conflicts, b.merge_conflicts);
}

TEST_P(RandomizedAgreement, WorkCountersNondecreasingInInputSize) {
  // random_matrix generates row r from the rows before it only, so
  // random_matrix(seed, k, ...) is exactly the first k rows of
  // random_matrix(seed, n, ...): the workloads nest, and every counter must
  // be non-decreasing along the chain.
  const std::uint64_t seed = GetParam() ^ 0x6202;
  core::FinderWorkStats prev_diet;
  core::FinderWorkStats prev_dbscan;
  for (std::size_t rows : {40u, 80u, 120u, 160u}) {
    const auto m = random_matrix(seed, rows, 70, 5);
    const RoleDietGroupFinder diet({.threads = 2});
    (void)diet.find_similar(m, 2);
    const core::FinderWorkStats diet_work = diet.last_work();
    EXPECT_GE(diet_work.rows_processed, prev_diet.rows_processed) << rows;
    EXPECT_GE(diet_work.pairs_evaluated, prev_diet.pairs_evaluated) << rows;
    EXPECT_GE(diet_work.pairs_matched, prev_diet.pairs_matched) << rows;
    prev_diet = diet_work;

    const DbscanGroupFinder dbscan({.threads = 2});
    (void)dbscan.find_similar(m, 2);
    const core::FinderWorkStats dbscan_work = dbscan.last_work();
    EXPECT_GE(dbscan_work.rows_processed, prev_dbscan.rows_processed) << rows;
    EXPECT_GE(dbscan_work.pairs_evaluated, prev_dbscan.pairs_evaluated) << rows;
    prev_dbscan = dbscan_work;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedAgreement,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace rolediet
