// Behavioural contract tests shared by all three group-finder methods,
// parameterized over the Method enum (TEST_P). The exact methods must return
// identical canonical groups on every case; HNSW is exact on these small
// inputs too (beam width >> input size), so all three are held to the same
// expectations here — large-scale recall differences are covered by the
// benchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/group_finder.hpp"
#include "test_helpers.hpp"

namespace rolediet::core {
namespace {

using rolediet::testing::csr_from_rows;

class GroupFinderContract : public ::testing::TestWithParam<Method> {
 protected:
  std::unique_ptr<GroupFinder> finder_ = make_group_finder(GetParam());
};

TEST_P(GroupFinderContract, NameMatchesMethod) {
  EXPECT_EQ(finder_->name(), to_string(GetParam()));
}

TEST_P(GroupFinderContract, EmptyMatrixYieldsNoGroups) {
  const auto m = csr_from_rows(10, {});
  EXPECT_TRUE(finder_->find_same(m).groups.empty());
  EXPECT_TRUE(finder_->find_similar(m, 1).groups.empty());
}

TEST_P(GroupFinderContract, AllRowsDistinct) {
  const auto m = csr_from_rows(20, {{1, 2}, {3, 4}, {5, 6, 7}});
  EXPECT_TRUE(finder_->find_same(m).groups.empty());
}

TEST_P(GroupFinderContract, OneDuplicatePair) {
  const auto m = csr_from_rows(20, {{1, 2}, {3, 4}, {1, 2}});
  const RoleGroups groups = finder_->find_same(m);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups.reducible_roles(), 1u);
}

TEST_P(GroupFinderContract, MultipleGroupsCanonicalOrder) {
  const auto m = csr_from_rows(30, {{9, 10}, {1}, {5, 6}, {1}, {5, 6}, {9, 10}, {5, 6}});
  const RoleGroups groups = finder_->find_same(m);
  ASSERT_EQ(groups.group_count(), 3u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 5}));
  EXPECT_EQ(groups.groups[1], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(groups.groups[2], (std::vector<std::size_t>{2, 4, 6}));
  EXPECT_EQ(groups.roles_in_groups(), 7u);
  EXPECT_EQ(groups.reducible_roles(), 4u);
}

TEST_P(GroupFinderContract, EmptyRowsNeverGrouped) {
  // Three empty roles + two duplicates: only the duplicates group.
  const auto m = csr_from_rows(10, {{}, {4, 5}, {}, {4, 5}, {}});
  const RoleGroups same = finder_->find_same(m);
  ASSERT_EQ(same.group_count(), 1u);
  EXPECT_EQ(same.groups[0], (std::vector<std::size_t>{1, 3}));
  // Same under similarity: empty roles are type-2 findings, not near-dupes.
  const RoleGroups similar = finder_->find_similar(m, 1);
  ASSERT_EQ(similar.group_count(), 1u);
  EXPECT_EQ(similar.groups[0], (std::vector<std::size_t>{1, 3}));
}

TEST_P(GroupFinderContract, SimilarThresholdOne) {
  // Rows 0 and 1 differ by exactly one column; row 2 is far away.
  const auto m = csr_from_rows(20, {{1, 2, 3}, {1, 2, 3, 4}, {10, 11, 12}});
  const RoleGroups groups = finder_->find_similar(m, 1);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1}));
}

TEST_P(GroupFinderContract, SimilarRespectsThresholdBoundary) {
  // Distance between rows is exactly 2 ({1,2} vs {1,3}).
  const auto m = csr_from_rows(20, {{1, 2}, {1, 3}});
  EXPECT_TRUE(finder_->find_similar(m, 1).groups.empty());
  const RoleGroups at2 = finder_->find_similar(m, 2);
  ASSERT_EQ(at2.group_count(), 1u);
  EXPECT_EQ(at2.groups[0], (std::vector<std::size_t>{0, 1}));
}

TEST_P(GroupFinderContract, SimilarIsTransitivelyClosed) {
  // Chain: {1,2,3} -1- {1,2,3,4} -1- {1,2,4}; ends are at distance 2.
  const auto m = csr_from_rows(20, {{1, 2, 3}, {1, 2, 3, 4}, {1, 2, 4}});
  const RoleGroups groups = finder_->find_similar(m, 1);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST_P(GroupFinderContract, SimilarZeroEqualsSame) {
  const auto m = csr_from_rows(20, {{1, 2}, {1, 2}, {1, 2, 3}, {7}});
  EXPECT_EQ(finder_->find_similar(m, 0), finder_->find_same(m));
}

TEST_P(GroupFinderContract, DisjointTinyRolesGroupUnderLargeThreshold)
{
  // {1} vs {2}: no shared column, hamming = 2. Threshold 2 must group them —
  // the corner the sparse co-occurrence sweep alone would miss.
  const auto m = csr_from_rows(20, {{1}, {2}, {10, 11, 12, 13}});
  const RoleGroups groups = finder_->find_similar(m, 2);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1}));
}

TEST_P(GroupFinderContract, ThresholdLargerThanAllNorms) {
  // With a huge threshold every non-empty row groups together.
  const auto m = csr_from_rows(20, {{1}, {5, 6}, {9}, {}});
  const RoleGroups groups = finder_->find_similar(m, 100);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST_P(GroupFinderContract, Figure1SameUsersAndSamePermissions) {
  const RbacDataset d = rolediet::testing::figure1_dataset();
  // RUAM: R02 (1) and R04 (3) share users {U02, U03}.
  const RoleGroups by_users = finder_->find_same(d.ruam());
  ASSERT_EQ(by_users.group_count(), 1u);
  EXPECT_EQ(by_users.groups[0], (std::vector<std::size_t>{1, 3}));
  // RPAM: R04 (3) and R05 (4) share permissions {P04, P05}.
  const RoleGroups by_perms = finder_->find_same(d.rpam());
  ASSERT_EQ(by_perms.group_count(), 1u);
  EXPECT_EQ(by_perms.groups[0], (std::vector<std::size_t>{3, 4}));
}

TEST_P(GroupFinderContract, WideColumnsAcrossWordBoundaries) {
  // Duplicate rows whose columns straddle 64-bit word boundaries.
  const auto m = csr_from_rows(300, {{63, 64, 128, 299}, {1}, {63, 64, 128, 299}});
  const RoleGroups groups = finder_->find_same(m);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 2}));
}

TEST_P(GroupFinderContract, SubsetRowsAreNotSame) {
  // {1,2} is a strict subset of {1,2,3} — similar at t=1 but never "same".
  const auto m = csr_from_rows(10, {{1, 2}, {1, 2, 3}});
  EXPECT_TRUE(finder_->find_same(m).groups.empty());
}

TEST_P(GroupFinderContract, JaccardZeroEqualsSame) {
  const auto m = csr_from_rows(20, {{1, 2}, {1, 2}, {1, 2, 3}, {7}, {}});
  EXPECT_EQ(finder_->find_similar_jaccard(m, 0), finder_->find_same(m));
}

TEST_P(GroupFinderContract, JaccardThresholdBoundaryInclusive) {
  // {1..10} vs {1..9}: g = 9, union = 10 -> scaled distance exactly 100000.
  const auto m = csr_from_rows(20, {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {1, 2, 3, 4, 5, 6, 7, 8, 9}});
  EXPECT_TRUE(finder_->find_similar_jaccard(m, 99'999).groups.empty());
  const RoleGroups at_boundary = finder_->find_similar_jaccard(m, 100'000);
  ASSERT_EQ(at_boundary.group_count(), 1u);
  EXPECT_EQ(at_boundary.groups[0], (std::vector<std::size_t>{0, 1}));
}

TEST_P(GroupFinderContract, JaccardIsRelativeWhereHammingIsAbsolute) {
  // Both pairs are at Hamming distance 2, but relative overlap differs:
  // rows 0/1 share 9 of 10 columns (scaled distance ~181819), rows 2/3 share
  // 1 of 3 (scaled distance ~666667).
  const auto m = csr_from_rows(40,
                               {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                                {1, 2, 3, 4, 5, 6, 7, 8, 9, 11},
                                {20, 21},
                                {20, 22}});
  const RoleGroups groups = finder_->find_similar_jaccard(m, 200'000);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1}));
  // A Hamming threshold of 2 cannot make that distinction.
  const RoleGroups hamming = finder_->find_similar(m, 2);
  EXPECT_EQ(hamming.group_count(), 2u);
}

TEST_P(GroupFinderContract, JaccardCeilingGroupsAllNonEmptyRows) {
  const auto m = csr_from_rows(20, {{1}, {5, 6}, {}, {9}});
  const RoleGroups groups = finder_->find_similar_jaccard(m, 1'000'000);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 1, 3}));
}

// Pairs whose norms sum within t match whatever they share; the exact
// finders join them as one star (prefix_filter.hpp) and never sink a star-
// united pair. DBSCAN's region queries leave every such pair to the star,
// so its sink holds only the content-decided matches; the role-diet sink
// holds no disjoint pair.
TEST(NormDecidedStar, ExactFindersSinkNoStarUnitedPair) {
  // Rows 0-2 hold one column each (0 and 1 share theirs); rows 3 and 4 are
  // at distance 2 with norms summing to 6.
  const auto m = csr_from_rows(20, {{0}, {0}, {1}, {3, 4, 5}, {3, 4, 6}});
  using Pair = std::pair<std::uint32_t, std::uint32_t>;
  for (const Method method : {Method::kExactDbscan, Method::kRoleDiet}) {
    const std::unique_ptr<GroupFinder> finder = make_group_finder(method);
    std::vector<Pair> sink;
    finder->collect_matched_pairs(&sink);
    const RoleGroups groups = finder->find_similar(m, 2);
    finder->collect_matched_pairs(nullptr);
    std::sort(sink.begin(), sink.end());
    sink.erase(std::unique(sink.begin(), sink.end()), sink.end());
    EXPECT_EQ(groups.groups, (std::vector<std::vector<std::size_t>>{{0, 1, 2}, {3, 4}}))
        << to_string(method);
    const std::vector<Pair> expected =
        method == Method::kExactDbscan ? std::vector<Pair>{{3, 4}}
                                       : std::vector<Pair>{{0, 1}, {3, 4}};
    EXPECT_EQ(sink, expected) << to_string(method);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, GroupFinderContract,
                         ::testing::Values(Method::kExactDbscan, Method::kApproxHnsw,
                                           Method::kRoleDiet),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           switch (info.param) {
                             case Method::kExactDbscan: return "ExactDbscan";
                             case Method::kApproxHnsw: return "ApproxHnsw";
                             case Method::kRoleDiet: return "RoleDiet";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace rolediet::core
