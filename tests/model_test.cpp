// Unit tests for the RBAC dataset model.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace rolediet::core {
namespace {

TEST(Model, InterningReturnsSameIdForSameName) {
  RbacDataset d;
  const Id a = d.add_user("alice");
  const Id b = d.add_user("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.add_user("alice"), a);
  EXPECT_EQ(d.num_users(), 2u);
  EXPECT_EQ(d.user_name(a), "alice");
}

TEST(Model, SeparateIdSpaces) {
  RbacDataset d;
  const Id u = d.add_user("x");
  const Id r = d.add_role("x");
  const Id p = d.add_permission("x");
  EXPECT_EQ(u, 0u);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(p, 0u);
  EXPECT_EQ(d.num_users(), 1u);
  EXPECT_EQ(d.num_roles(), 1u);
  EXPECT_EQ(d.num_permissions(), 1u);
}

TEST(Model, FindByName) {
  RbacDataset d;
  d.add_role("admin");
  EXPECT_EQ(d.find_role("admin"), std::optional<Id>(0));
  EXPECT_EQ(d.find_role("nope"), std::nullopt);
  EXPECT_EQ(d.find_user("admin"), std::nullopt);
}

TEST(Model, BulkAdd) {
  RbacDataset d;
  const Id first = d.add_users(100, "emp");
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(d.num_users(), 100u);
  EXPECT_EQ(d.user_name(0), "emp0");
  EXPECT_EQ(d.user_name(99), "emp99");
  const Id second = d.add_users(10, "ext");
  EXPECT_EQ(second, 100u);
  EXPECT_EQ(d.user_name(100), "ext100");
}

TEST(Model, EdgeValidation) {
  RbacDataset d;
  const Id r = d.add_role("r");
  const Id u = d.add_user("u");
  const Id p = d.add_permission("p");
  d.assign_user(r, u);
  d.grant_permission(r, p);
  EXPECT_THROW(d.assign_user(r + 1, u), std::out_of_range);
  EXPECT_THROW(d.assign_user(r, u + 1), std::out_of_range);
  EXPECT_THROW(d.grant_permission(r, p + 1), std::out_of_range);
}

TEST(Model, MatricesReflectEdges) {
  const RbacDataset d = testing::figure1_dataset();
  const auto& ruam = d.ruam();
  const auto& rpam = d.rpam();
  EXPECT_EQ(ruam.rows(), 5u);
  EXPECT_EQ(ruam.cols(), 4u);
  EXPECT_EQ(rpam.rows(), 5u);
  EXPECT_EQ(rpam.cols(), 6u);

  // R04 (id 3) has users {U02, U03} = ids {1, 2}, perms {P04, P05} = {3, 4}.
  const auto users = d.users_of_role(3);
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 1u);
  EXPECT_EQ(users[1], 2u);
  const auto perms = d.permissions_of_role(3);
  ASSERT_EQ(perms.size(), 2u);
  EXPECT_EQ(perms[0], 3u);
  EXPECT_EQ(perms[1], 4u);
}

TEST(Model, DuplicateEdgesCollapseInMatrix) {
  RbacDataset d;
  const Id r = d.add_role("r");
  const Id u = d.add_user("u");
  d.assign_user(r, u);
  d.assign_user(r, u);
  d.assign_user(r, u);
  EXPECT_EQ(d.num_user_assignments(), 3u);  // raw edges kept
  EXPECT_EQ(d.ruam().nnz(), 1u);            // matrix is a set
}

TEST(Model, MatrixCacheInvalidatedByMutation) {
  RbacDataset d;
  const Id r = d.add_role("r");
  const Id u1 = d.add_user("u1");
  d.assign_user(r, u1);
  EXPECT_EQ(d.ruam().nnz(), 1u);
  const Id u2 = d.add_user("u2");
  d.assign_user(r, u2);
  EXPECT_EQ(d.ruam().nnz(), 2u);
  EXPECT_EQ(d.ruam().cols(), 2u);
}

TEST(Model, PermissionsOfUserUnionsRoles) {
  const RbacDataset d = testing::figure1_dataset();
  // U02 (id 1) is in R02 (no perms) and R04 (perms {P04, P05} = {3, 4}).
  EXPECT_EQ(d.permissions_of_user(1), (std::vector<Id>{3, 4}));
  // U01 (id 0) is in R01 only: perm {P02} = {1}.
  EXPECT_EQ(d.permissions_of_user(0), (std::vector<Id>{1}));
  EXPECT_THROW(d.permissions_of_user(99), std::out_of_range);
}

TEST(Model, PermissionsOfUserDeduplicatesAcrossRoles) {
  RbacDataset d;
  const Id u = d.add_user("u");
  const Id p = d.add_permission("p");
  const Id r1 = d.add_role("r1");
  const Id r2 = d.add_role("r2");
  d.assign_user(r1, u);
  d.assign_user(r2, u);
  d.grant_permission(r1, p);
  d.grant_permission(r2, p);
  EXPECT_EQ(d.permissions_of_user(u), (std::vector<Id>{p}));
}

TEST(Model, EmptyDatasetMatrices) {
  RbacDataset d;
  EXPECT_EQ(d.ruam().rows(), 0u);
  EXPECT_EQ(d.rpam().rows(), 0u);
}

TEST(NameTable, InternsDenseIdsInInsertionOrder) {
  NameTable t;
  EXPECT_EQ(t.intern("b"), (std::pair<Id, bool>{0, true}));
  EXPECT_EQ(t.intern("a"), (std::pair<Id, bool>{1, true}));
  EXPECT_EQ(t.intern("b"), (std::pair<Id, bool>{0, false}));  // repeat: existing id
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(1), "a");
  EXPECT_THROW((void)t.name(2), std::out_of_range);

  // Past several rehashes every id still resolves both ways.
  for (int i = 0; i < 1000; ++i) t.intern("n" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(t.find("n" + std::to_string(i)), std::optional<Id>(static_cast<Id>(i + 2)));
    EXPECT_EQ(t.name(static_cast<Id>(i + 2)), "n" + std::to_string(i));
  }
}

TEST(NameTable, FindMissesReturnNullopt) {
  const NameTable empty;
  EXPECT_EQ(empty.find(""), std::nullopt);
  EXPECT_EQ(empty.find("x"), std::nullopt);
  NameTable t;
  t.reserve(100);
  EXPECT_EQ(t.find("x"), std::nullopt);
  t.intern("x");
  EXPECT_EQ(t.find("y"), std::nullopt);
  EXPECT_EQ(t.find(""), std::nullopt);
  t.intern("");
  EXPECT_EQ(t.find(""), std::optional<Id>(1));
}

TEST(NameTable, EmbeddedNulSeparatesNames) {
  using namespace std::string_literals;
  NameTable t;
  EXPECT_EQ(t.intern("a\0b"s).first, 0u);
  EXPECT_EQ(t.intern("a\0c"s).first, 1u);
  EXPECT_EQ(t.intern("a"s).first, 2u);
  EXPECT_EQ(t.find(std::string_view("a\0c", 3)), std::optional<Id>(1));
  EXPECT_EQ(t.name(0).size(), 3u);
}

TEST(NameTable, CopyIsIndependentOfItsSource) {
  NameTable source;
  source.intern("shared");
  NameTable copy = source;
  copy.intern("copy-only");
  source.intern("source-only");
  EXPECT_EQ(copy.find("source-only"), std::nullopt);
  EXPECT_EQ(source.find("copy-only"), std::nullopt);
  EXPECT_EQ(copy.find("copy-only"), std::optional<Id>(1));
  EXPECT_EQ(source.find("source-only"), std::optional<Id>(1));
  EXPECT_EQ(copy.find("shared"), std::optional<Id>(0));
}

TEST(NameTable, BatchInternGivesTheScalarIds) {
  // Repeats inside a round, across rounds, long names (heap-allocated) and
  // growth from an empty table through many rehashes, in uneven spans.
  util::Xoshiro256 rng(0xBA7C);
  std::vector<std::string> pool;
  for (int i = 0; i < 3000; ++i) {
    std::string name(i % 3 == 0 ? "a-name-long-enough-to-leave-small-buffers-" : "n");
    name += std::to_string(i);
    pool.push_back(std::move(name));
  }
  NameTable scalar;
  NameTable batched;
  std::size_t at = 0;
  while (at < 20000) {
    const std::size_t n = 1 + rng.bounded(3 * NameTable::kBatch);
    std::vector<std::string_view> names;
    for (std::size_t i = 0; i < n; ++i) names.push_back(pool[rng.bounded(pool.size())]);
    std::vector<Id> ids(n);
    batched.intern(names, ids);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ids[i], scalar.intern(names[i]).first);
    at += n;
  }
  ASSERT_EQ(batched.size(), scalar.size());
  for (Id id = 0; id < scalar.size(); ++id) EXPECT_EQ(batched.name(id), scalar.name(id));
  std::vector<Id> one(1);
  EXPECT_THROW(batched.intern(std::span<const std::string_view>{}, one), std::invalid_argument);
}

TEST(Model, BulkByNameEntriesEqualOneCallPerName) {
  const std::vector<std::string_view> roles{"r1", "r2", "r1", "r3", "r2"};
  const std::vector<std::string_view> users{"u1", "u1", "u2", "u3", "u2"};
  const std::vector<std::string_view> perms{"p2", "p1", "p2", "p2", "p3"};
  RbacDataset one;
  RbacDataset bulk;
  one.add_permission("p3");
  bulk.add_entities(NodeKind::kPermission, std::vector<std::string_view>{"p3"});
  for (std::size_t i = 0; i < roles.size(); ++i) {
    one.assign_user(one.add_role(roles[i]), one.add_user(users[i]));
  }
  for (std::size_t i = 0; i < roles.size(); ++i) {
    one.grant_permission(one.add_role(roles[i]), one.add_permission(perms[i]));
  }
  bulk.assign_users(roles, users);
  bulk.grant_permissions(roles, perms);
  for (const auto* d : {&one, &bulk}) ASSERT_EQ(d->num_permissions(), 3u);
  for (Id p = 0; p < 3; ++p) EXPECT_EQ(bulk.permission_name(p), one.permission_name(p));
  for (Id r = 0; r < 3; ++r) EXPECT_EQ(bulk.role_name(r), one.role_name(r));
  for (Id u = 0; u < 3; ++u) EXPECT_EQ(bulk.user_name(u), one.user_name(u));
  EXPECT_TRUE(std::ranges::equal(bulk.role_user_edges(), one.role_user_edges()));
  EXPECT_TRUE(std::ranges::equal(bulk.role_permission_edges(), one.role_permission_edges()));
  EXPECT_EQ(bulk.ruam(), one.ruam());
  EXPECT_EQ(bulk.rpam(), one.rpam());
  EXPECT_THROW(bulk.assign_users(roles, std::span(perms).subspan(1)), std::invalid_argument);
}

TEST(Model, FromCompiledEqualsEdgeByEdge) {
  RbacDataset d;
  const Id u0 = d.add_user("u0");
  const Id u1 = d.add_user("u1");
  const Id r0 = d.add_role("r0");
  const Id r1 = d.add_role("r1");
  const Id p0 = d.add_permission("p0");
  d.assign_user(r1, u1);
  d.assign_user(r0, u1);
  d.assign_user(r0, u0);
  d.assign_user(r0, u1);  // duplicate raw edge
  d.grant_permission(r1, p0);

  const RbacDataset bulk = RbacDataset::from_compiled(
      d.user_table(), d.role_table(), d.permission_table(), d.ruam(), d.rpam());
  EXPECT_EQ(bulk.ruam(), d.ruam());
  EXPECT_EQ(bulk.rpam(), d.rpam());
  EXPECT_EQ(bulk.find_role("r1"), std::optional<Id>(r1));
  // Raw edges are the compiled rows in row order, duplicates collapsed.
  const std::vector<std::pair<Id, Id>> users(bulk.role_user_edges().begin(),
                                             bulk.role_user_edges().end());
  EXPECT_EQ(users, (std::vector<std::pair<Id, Id>>{{r0, u0}, {r0, u1}, {r1, u1}}));
  const std::vector<std::pair<Id, Id>> perms(bulk.role_permission_edges().begin(),
                                             bulk.role_permission_edges().end());
  EXPECT_EQ(perms, (std::vector<std::pair<Id, Id>>{{r1, p0}}));
  EXPECT_EQ(bulk.permissions_of_user(u1), (std::vector<Id>{p0}));
}

TEST(Model, FromCompiledRejectsMismatchedShapes) {
  NameTable users;
  users.intern("u");
  NameTable roles;
  roles.intern("r");
  NameTable perms;
  perms.intern("p");
  const linalg::CsrMatrix one_by_one(1, 1);
  EXPECT_NO_THROW((void)RbacDataset::from_compiled(users, roles, perms, one_by_one, one_by_one));
  // Too many rows for the roles, too many columns for the users / perms.
  EXPECT_THROW((void)RbacDataset::from_compiled(users, roles, perms, linalg::CsrMatrix(2, 1),
                                                one_by_one),
               std::invalid_argument);
  EXPECT_THROW((void)RbacDataset::from_compiled(users, roles, perms, linalg::CsrMatrix(1, 2),
                                                one_by_one),
               std::invalid_argument);
  EXPECT_THROW((void)RbacDataset::from_compiled(users, roles, perms, one_by_one,
                                                linalg::CsrMatrix(1, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)RbacDataset::from_compiled(users, roles, NameTable{}, one_by_one,
                                                one_by_one),
               std::invalid_argument);
}

TEST(Model, NodeKindNames) {
  EXPECT_EQ(to_string(NodeKind::kUser), "user");
  EXPECT_EQ(to_string(NodeKind::kRole), "role");
  EXPECT_EQ(to_string(NodeKind::kPermission), "permission");
}

}  // namespace
}  // namespace rolediet::core
