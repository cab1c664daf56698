// Tests for the incremental auditor, including the batch-equivalence
// property under randomized mutation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/detector.hpp"
#include "core/digest.hpp"
#include "core/incremental.hpp"
#include "core/methods/cooccurrence.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace rolediet::core {
namespace {

void expect_matches_batch(const IncrementalAuditor& live) {
  const RbacDataset snap = live.snapshot();
  const StructuralFindings batch = detect_structural(snap);
  const StructuralFindings incr = live.structural();
  EXPECT_EQ(incr.standalone_users, batch.standalone_users);
  EXPECT_EQ(incr.standalone_roles, batch.standalone_roles);
  EXPECT_EQ(incr.standalone_permissions, batch.standalone_permissions);
  EXPECT_EQ(incr.roles_without_users, batch.roles_without_users);
  EXPECT_EQ(incr.roles_without_permissions, batch.roles_without_permissions);
  EXPECT_EQ(incr.single_user_roles, batch.single_user_roles);
  EXPECT_EQ(incr.single_permission_roles, batch.single_permission_roles);

  const methods::RoleDietGroupFinder finder;
  EXPECT_EQ(live.same_user_groups(), finder.find_same(snap.ruam()));
  EXPECT_EQ(live.same_permission_groups(), finder.find_same(snap.rpam()));
}

TEST(Incremental, StartsFromSnapshot) {
  const IncrementalAuditor live(rolediet::testing::figure1_dataset());
  EXPECT_EQ(live.num_users(), 4u);
  EXPECT_EQ(live.num_roles(), 5u);
  EXPECT_EQ(live.num_permissions(), 6u);
  expect_matches_batch(live);
  // The figure's known findings survive the round trip into the auditor.
  ASSERT_EQ(live.same_user_groups().group_count(), 1u);
  EXPECT_EQ(live.same_user_groups().groups[0], (std::vector<std::size_t>{1, 3}));
}

TEST(Incremental, EdgeMutationsAreIdempotent) {
  IncrementalAuditor live;
  const Id r = live.add_role("r");
  const Id u = live.add_user("u");
  EXPECT_TRUE(live.assign_user(r, u));
  EXPECT_FALSE(live.assign_user(r, u));  // already present
  EXPECT_TRUE(live.revoke_user(r, u));
  EXPECT_FALSE(live.revoke_user(r, u));  // already absent
}

TEST(Incremental, DuplicateEntityNamesReturnExistingIds) {
  // add_* are interning operations: a name is a unique key, so re-adding it
  // returns the existing id and changes nothing. Journals (io/journal.hpp)
  // rely on this to replay idempotently.
  IncrementalAuditor live;
  const Id u = live.add_user("alice");
  const Id r = live.add_role("admins");
  const Id p = live.add_permission("s3:Get");
  EXPECT_EQ(live.add_user("alice"), u);
  EXPECT_EQ(live.add_role("admins"), r);
  EXPECT_EQ(live.add_permission("s3:Get"), p);
  EXPECT_EQ(live.num_users(), 1u);
  EXPECT_EQ(live.num_roles(), 1u);
  EXPECT_EQ(live.num_permissions(), 1u);

  // Edges attached before the duplicate add survive it.
  EXPECT_TRUE(live.assign_user(r, u));
  EXPECT_EQ(live.add_role("admins"), r);
  EXPECT_FALSE(live.assign_user(r, u));  // edge still present

  // Names are distinct keys per entity kind, not globally.
  const Id r2 = live.add_role("alice");
  EXPECT_NE(r2, r);
  EXPECT_EQ(live.num_roles(), 2u);
  EXPECT_EQ(live.num_users(), 1u);
}

TEST(Incremental, FindByNameMirrorsInterning) {
  IncrementalAuditor live;
  EXPECT_EQ(live.find_user("alice"), std::nullopt);
  const Id u = live.add_user("alice");
  const Id r = live.add_role("admins");
  const Id p = live.add_permission("s3:Get");
  EXPECT_EQ(live.find_user("alice"), std::optional<Id>{u});
  EXPECT_EQ(live.find_role("admins"), std::optional<Id>{r});
  EXPECT_EQ(live.find_permission("s3:Get"), std::optional<Id>{p});
  EXPECT_EQ(live.find_role("alice"), std::nullopt);  // per-kind namespaces
  EXPECT_EQ(live.find_permission("admins"), std::nullopt);
}

TEST(Incremental, RevokeBreaksDuplicateGroup) {
  IncrementalAuditor live(rolediet::testing::figure1_dataset());
  // R02 (1) and R04 (3) share users {U02, U03}; revoking U03 from R04
  // dissolves the group and makes R04 a single-user role.
  EXPECT_TRUE(live.revoke_user(3, 2));
  EXPECT_TRUE(live.same_user_groups().groups.empty());
  const StructuralFindings f = live.structural();
  EXPECT_EQ(f.single_user_roles, (std::vector<Id>{0, 3, 4}));
  expect_matches_batch(live);

  // Re-assigning restores the duplicate group.
  EXPECT_TRUE(live.assign_user(3, 2));
  ASSERT_EQ(live.same_user_groups().group_count(), 1u);
  expect_matches_batch(live);
}

TEST(Incremental, AssignCreatesNewDuplicateGroup) {
  IncrementalAuditor live(rolediet::testing::figure1_dataset());
  // Give R01 (users {U01}) a twin: new role with exactly {U01}.
  const Id twin = live.add_role("R06");
  EXPECT_TRUE(live.assign_user(twin, 0));
  const RoleGroups groups = live.same_user_groups();
  bool found = false;
  for (const auto& g : groups.groups) {
    if (g == std::vector<std::size_t>{0, twin}) found = true;
  }
  EXPECT_TRUE(found);
  expect_matches_batch(live);
}

TEST(Incremental, RevokingLastEdgeMakesRoleOneSided) {
  IncrementalAuditor live;
  const Id r = live.add_role("r");
  const Id u = live.add_user("u");
  const Id p = live.add_permission("p");
  live.assign_user(r, u);
  live.grant_permission(r, p);
  expect_matches_batch(live);

  live.revoke_permission(r, p);
  EXPECT_EQ(live.structural().roles_without_permissions, (std::vector<Id>{r}));
  live.revoke_user(r, u);
  EXPECT_EQ(live.structural().standalone_roles, (std::vector<Id>{r}));
  EXPECT_EQ(live.structural().standalone_users, (std::vector<Id>{u}));
  expect_matches_batch(live);
}

TEST(Incremental, UnknownIdsThrow) {
  IncrementalAuditor live;
  live.add_role("r");
  live.add_user("u");
  EXPECT_THROW(live.assign_user(5, 0), std::out_of_range);
  EXPECT_THROW(live.assign_user(0, 5), std::out_of_range);
  EXPECT_THROW(live.revoke_permission(0, 0), std::out_of_range);
}

TEST(Incremental, EmptyAuditorIsClean) {
  const IncrementalAuditor live;
  const StructuralFindings f = live.structural();
  EXPECT_TRUE(f.standalone_users.empty());
  EXPECT_TRUE(live.same_user_groups().groups.empty());
  EXPECT_EQ(live.snapshot().num_roles(), 0u);
}

/// A random dataset whose raw edges arrive out of role order and repeat, with
/// duplicate rows (small column pool), empty rows and standalone entities.
RbacDataset random_raw_dataset(std::uint64_t seed, std::size_t names_per_kind) {
  util::Xoshiro256 rng(seed);
  RbacDataset d;
  for (std::size_t i = 0; i < names_per_kind; ++i) {
    d.add_user("u" + std::to_string(rng()));
    d.add_role("r" + std::to_string(rng()));
    d.add_permission("p" + std::to_string(rng()));
  }
  const std::size_t pool = std::max<std::size_t>(3, names_per_kind / 20);
  for (std::size_t e = 0; e < 3 * names_per_kind; ++e) {
    const Id role = static_cast<Id>(rng.bounded(d.num_roles()));
    if (rng.bounded(2) == 0) {
      d.assign_user(role, static_cast<Id>(rng.bounded(std::min(pool, d.num_users()))));
    } else {
      d.grant_permission(role, static_cast<Id>(rng.bounded(d.num_permissions())));
    }
    if (rng.bounded(8) == 0) d.assign_user(role, 0);  // repeated raw edges
  }
  return d;
}

/// The edge-by-edge path: names in id order, then every raw edge as recorded.
IncrementalAuditor edge_by_edge(const RbacDataset& d) {
  IncrementalAuditor live;
  for (Id u = 0; u < d.num_users(); ++u) live.add_user(d.user_name(u));
  for (Id r = 0; r < d.num_roles(); ++r) live.add_role(d.role_name(r));
  for (Id p = 0; p < d.num_permissions(); ++p) live.add_permission(d.permission_name(p));
  for (const auto& [role, user] : d.role_user_edges()) live.assign_user(role, user);
  for (const auto& [role, perm] : d.role_permission_edges()) live.grant_permission(role, perm);
  return live;
}

void expect_same_state(const IncrementalAuditor& bulk, const IncrementalAuditor& oracle) {
  ASSERT_EQ(bulk.num_users(), oracle.num_users());
  ASSERT_EQ(bulk.num_roles(), oracle.num_roles());
  ASSERT_EQ(bulk.num_permissions(), oracle.num_permissions());
  for (Id u = 0; u < oracle.num_users(); ++u) {
    ASSERT_EQ(bulk.user_name(u), oracle.user_name(u));
    ASSERT_EQ(bulk.find_user(oracle.user_name(u)), std::optional<Id>(u));
    ASSERT_EQ(bulk.user_degree(u), oracle.user_degree(u));
  }
  for (Id p = 0; p < oracle.num_permissions(); ++p) {
    ASSERT_EQ(bulk.permission_name(p), oracle.permission_name(p));
    ASSERT_EQ(bulk.find_permission(oracle.permission_name(p)), std::optional<Id>(p));
    ASSERT_EQ(bulk.permission_degree(p), oracle.permission_degree(p));
  }
  for (Id r = 0; r < oracle.num_roles(); ++r) {
    ASSERT_EQ(bulk.role_name(r), oracle.role_name(r));
    ASSERT_EQ(bulk.find_role(oracle.role_name(r)), std::optional<Id>(r));
    ASSERT_EQ(bulk.users_of_role(r), oracle.users_of_role(r));
    ASSERT_EQ(bulk.permissions_of_role(r), oracle.permissions_of_role(r));
  }
  for (const char* absent : {"", "absent", "u", "r0x"}) {
    EXPECT_EQ(bulk.find_user(absent), std::nullopt);
    EXPECT_EQ(bulk.find_role(absent), std::nullopt);
    EXPECT_EQ(bulk.find_permission(absent), std::nullopt);
  }
  EXPECT_EQ(bulk.structural(), oracle.structural());

  FinderWorkStats bulk_work;
  FinderWorkStats oracle_work;
  EXPECT_EQ(bulk.same_user_groups(&bulk_work), oracle.same_user_groups(&oracle_work));
  EXPECT_EQ(bulk.same_permission_groups(&bulk_work),
            oracle.same_permission_groups(&oracle_work));
  EXPECT_EQ(bulk_work.rows_processed, oracle_work.rows_processed);
  EXPECT_EQ(bulk_work.pairs_evaluated, oracle_work.pairs_evaluated);
  EXPECT_EQ(bulk_work.pairs_matched, oracle_work.pairs_matched);
  EXPECT_EQ(bulk_work.merges, oracle_work.merges);

  const RbacDataset a = bulk.snapshot();
  const RbacDataset b = oracle.snapshot();
  ASSERT_EQ(a.num_roles(), b.num_roles());
  for (Id r = 0; r < b.num_roles(); ++r) EXPECT_EQ(a.role_name(r), b.role_name(r));
  EXPECT_EQ(a.ruam(), b.ruam());
  EXPECT_EQ(a.rpam(), b.rpam());
  EXPECT_TRUE(std::ranges::equal(a.role_user_edges(), b.role_user_edges()));
  EXPECT_TRUE(std::ranges::equal(a.role_permission_edges(), b.role_permission_edges()));
  EXPECT_EQ(dataset_content_digest(a), dataset_content_digest(b));
  EXPECT_EQ(dataset_content_digest(bulk), dataset_content_digest(oracle));
}

/// (seed, names per kind)
using BulkCase = std::pair<std::uint64_t, std::size_t>;

class IncrementalBulkBuild : public ::testing::TestWithParam<BulkCase> {};

TEST_P(IncrementalBulkBuild, EqualsEdgeByEdgePath) {
  const auto [seed, names] = GetParam();
  const RbacDataset d = random_raw_dataset(seed, names);
  IncrementalAuditor bulk(d);
  IncrementalAuditor oracle = edge_by_edge(d);
  expect_same_state(bulk, oracle);
  EXPECT_EQ(bulk.snapshot().ruam(), d.ruam());

  // A delta with new names lands on the same dense ids on both sides.
  util::Xoshiro256 rng(seed + 1);
  for (IncrementalAuditor* live : {&bulk, &oracle}) {
    EXPECT_EQ(live->add_user("new-user"), d.num_users());
    EXPECT_EQ(live->add_role("new-role"), d.num_roles());
    EXPECT_EQ(live->add_permission("new-perm"), d.num_permissions());
    EXPECT_EQ(live->add_role("new-role"), d.num_roles());  // known name: existing id
  }
  for (int step = 0; step < 200; ++step) {
    const Id role = static_cast<Id>(rng.bounded(bulk.num_roles()));
    const Id user = static_cast<Id>(rng.bounded(bulk.num_users()));
    const Id perm = static_cast<Id>(rng.bounded(bulk.num_permissions()));
    const bool add = rng.bounded(2) == 0;
    EXPECT_EQ(add ? bulk.assign_user(role, user) : bulk.revoke_user(role, user),
              add ? oracle.assign_user(role, user) : oracle.revoke_user(role, user));
    EXPECT_EQ(add ? bulk.grant_permission(role, perm) : bulk.revoke_permission(role, perm),
              add ? oracle.grant_permission(role, perm) : oracle.revoke_permission(role, perm));
  }
  expect_same_state(bulk, oracle);
  expect_matches_batch(bulk);
}

// The 6,000-name seed grows each name table through several rehashes.
INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalBulkBuild,
                         ::testing::Values(BulkCase{3, 0}, BulkCase{5, 40}, BulkCase{13, 300},
                                           BulkCase{29, 6000}));

class IncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalProperty, RandomMutationsMatchBatchAudit) {
  util::Xoshiro256 rng(GetParam());
  IncrementalAuditor live;
  constexpr std::size_t kUsers = 30;
  constexpr std::size_t kRoles = 25;
  constexpr std::size_t kPerms = 20;
  for (std::size_t u = 0; u < kUsers; ++u) live.add_user("u" + std::to_string(u));
  for (std::size_t r = 0; r < kRoles; ++r) live.add_role("r" + std::to_string(r));
  for (std::size_t p = 0; p < kPerms; ++p) live.add_permission("p" + std::to_string(p));

  for (int step = 0; step < 400; ++step) {
    const Id role = static_cast<Id>(rng.bounded(kRoles));
    switch (rng.bounded(4)) {
      case 0: live.assign_user(role, static_cast<Id>(rng.bounded(kUsers))); break;
      case 1: live.revoke_user(role, static_cast<Id>(rng.bounded(kUsers))); break;
      case 2: live.grant_permission(role, static_cast<Id>(rng.bounded(kPerms))); break;
      case 3: live.revoke_permission(role, static_cast<Id>(rng.bounded(kPerms))); break;
    }
    // Verify the full contract at a sampled subset of steps (every check is
    // a complete batch audit; doing it 400x per seed would be wasteful).
    if (step % 80 == 79) expect_matches_batch(live);
  }
  expect_matches_batch(live);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Values(7u, 11u, 23u, 41u, 97u));

}  // namespace
}  // namespace rolediet::core
