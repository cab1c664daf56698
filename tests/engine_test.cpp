// Steady-state AuditEngine contract tests (core/engine.hpp).
//
// The load-bearing property is the byte-identity contract: for every method
// except approx-hnsw, reaudit() after a mutation batch reports exactly what a
// fresh batch audit() of snapshot() reports — same groups, same structural
// findings, same shape — at every thread count, row backend, and similarity
// mode. The fuzz suite drives ~50 seeded mutation traces through the engine
// and checks the contract after every batch; the work *counters* are allowed
// to differ (the whole point is that the delta path does less work), so the
// canonical rendering zeroes them along with wall-clock timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/digest.hpp"
#include "core/engine.hpp"
#include "core/framework.hpp"
#include "core/methods/exact.hpp"
#include "core/sharded_engine.hpp"
#include "fig3_workload.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace rolediet {
namespace {

using core::AuditEngine;
using core::AuditOptions;
using core::AuditReport;
using core::Method;
using core::Mutation;
using core::MutationKind;
using core::RbacDelta;

/// Renders a report keeping only what the byte-identity contract covers:
/// findings and dataset shape. Timings, work counters, and the options echo
/// (identical here anyway) are reset.
std::string canonical_text(AuditReport report) {
  for (core::PhaseTiming* t :
       {&report.structural_time, &report.same_users_time, &report.same_permissions_time,
        &report.similar_users_time, &report.similar_permissions_time}) {
    t->seconds = 0.0;
  }
  for (core::FinderWorkStats* w : {&report.same_users_work, &report.same_permissions_work,
                                   &report.similar_users_work, &report.similar_permissions_work}) {
    *w = core::FinderWorkStats{};
  }
  // The live engine's version counter differs from a fresh batch engine's
  // (which starts at 0); the dataset digest must NOT differ, so it stays —
  // it is part of what the identity contract covers.
  report.engine_version = 0;
  report.options = AuditOptions{};
  return report.to_text();
}

/// Small random starting dataset: R roles with random user/permission sets,
/// including some duplicate rows so type 4/5 findings exist from the start.
core::RbacDataset seed_dataset(util::Xoshiro256& rng) {
  core::RbacDataset d;
  const std::size_t users = 24 + rng.bounded(16);
  const std::size_t perms = 24 + rng.bounded(16);
  const std::size_t roles = 30 + rng.bounded(25);
  for (std::size_t u = 0; u < users; ++u) d.add_user("U" + std::to_string(u));
  for (std::size_t p = 0; p < perms; ++p) d.add_permission("P" + std::to_string(p));
  for (std::size_t r = 0; r < roles; ++r) d.add_role("R" + std::to_string(r));
  for (std::size_t r = 0; r < roles; ++r) {
    if (r % 7 == 6) continue;  // leave some roles empty (type-2 material)
    const std::size_t src = (r % 5 == 4) ? r - 1 : r;  // every 5th duplicates its neighbor
    util::Xoshiro256 content(0xD00D + src * 7919);
    const std::size_t nu = 1 + content.bounded(6);
    for (std::size_t k = 0; k < nu; ++k)
      d.assign_user(static_cast<core::Id>(r), static_cast<core::Id>(content.bounded(users)));
    const std::size_t np = 1 + content.bounded(6);
    for (std::size_t k = 0; k < np; ++k)
      d.grant_permission(static_cast<core::Id>(r), static_cast<core::Id>(content.bounded(perms)));
  }
  return d;
}

/// One random mutation batch, by name — the journal-shaped surface
/// AuditEngine::apply() consumes. Entity counts grow as add-* mutations
/// land, so later batches can reference the new names.
RbacDelta random_batch(util::Xoshiro256& rng, std::size_t& users, std::size_t& roles,
                       std::size_t& perms, std::size_t size) {
  RbacDelta delta;
  auto user = [&] { return "U" + std::to_string(rng.bounded(users)); };
  auto role = [&] { return "R" + std::to_string(rng.bounded(roles)); };
  auto perm = [&] { return "P" + std::to_string(rng.bounded(perms)); };
  for (std::size_t i = 0; i < size; ++i) {
    switch (rng.bounded(20)) {
      case 0:
        delta.add_user("U" + std::to_string(users++));
        break;
      case 1:
        delta.add_role("R" + std::to_string(roles++));
        break;
      case 2:
        delta.add_permission("P" + std::to_string(perms++));
        break;
      case 3:
      case 4:
      case 5:
      case 6:
        delta.revoke_user(role(), user());
        break;
      case 7:
      case 8:
      case 9:
        delta.revoke_permission(role(), perm());
        break;
      case 10:
      case 11:
      case 12:
      case 13:
        delta.grant_permission(role(), perm());
        break;
      default:
        delta.assign_user(role(), user());
        break;
    }
  }
  return delta;
}

struct FuzzConfig {
  std::size_t threads;
  linalg::RowBackend backend;
};
constexpr FuzzConfig kConfigs[] = {
    {1, linalg::RowBackend::kDense},
    {2, linalg::RowBackend::kSparse},
    {8, linalg::RowBackend::kDense},
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, ReauditMatchesBatchAuditOfSnapshotAfterEveryBatch) {
  const std::uint64_t seed = GetParam();
  const FuzzConfig cfg = kConfigs[seed % 3];

  AuditOptions options;
  options.threads = cfg.threads;
  options.backend = cfg.backend;
  if (seed % 2 == 1) {
    options.similarity_mode = core::SimilarityMode::kJaccard;
    options.jaccard_dissimilarity = 0.25;
  } else {
    options.similarity_threshold = 1 + (seed / 2) % 2;  // t in {1, 2}
  }
  if (seed % 11 == 10) options.detect_similar = false;

  for (Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
    options.method = method;
    util::Xoshiro256 rng(0xE191E + seed * 131);
    const core::RbacDataset start = seed_dataset(rng);
    std::size_t users = start.num_users();
    std::size_t roles = start.num_roles();
    std::size_t perms = start.num_permissions();

    AuditEngine engine(start, options);
    for (std::size_t batch = 0; batch < 4; ++batch) {
      engine.apply(random_batch(rng, users, roles, perms, 12 + rng.bounded(10)));
      const AuditReport live = engine.reaudit();
      const AuditReport fresh = core::audit(engine.snapshot(), options);
      ASSERT_EQ(canonical_text(live), canonical_text(fresh))
          << "method " << core::to_string(method) << ", seed " << seed << ", batch " << batch;
    }
    EXPECT_EQ(engine.audits(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(0, 50));

// The cached matched-pair sets — what the delta reaudit replays and the
// store persists — must equal a fresh engine's after every reaudit. Groups
// hide a missing pair whenever transitivity reconnects it, so this compares
// the pair sets themselves. Case names end in T1/T8 for the sanitizer jobs.
class EnginePairCache : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnginePairCache, CachedPairsEqualAFreshEnginesAfterEveryReaudit) {
  std::vector<AuditOptions> variants;
  for (std::size_t t : {1u, 2u, 3u}) {
    AuditOptions hamming;
    hamming.similarity_threshold = t;
    variants.push_back(hamming);
  }
  AuditOptions jaccard;
  jaccard.similarity_mode = core::SimilarityMode::kJaccard;
  jaccard.jaccard_dissimilarity = 0.3;
  variants.push_back(jaccard);

  for (AuditOptions options : variants) {
    options.threads = GetParam();
    for (Method method : {Method::kRoleDiet, Method::kExactDbscan}) {
      options.method = method;
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        util::Xoshiro256 rng(0xCAC4E + seed * 977);
        const core::RbacDataset start = seed_dataset(rng);
        std::size_t users = start.num_users();
        std::size_t roles = start.num_roles();
        std::size_t perms = start.num_permissions();
        AuditEngine engine(start, options);
        (void)engine.reaudit();
        for (std::size_t batch = 0; batch < 4; ++batch) {
          engine.apply(random_batch(rng, users, roles, perms, 8 + rng.bounded(12)));
          (void)engine.reaudit();
          AuditEngine fresh(engine.snapshot(), options);
          (void)fresh.reaudit();
          const core::EnginePersistentState live = engine.persistent_state();
          const core::EnginePersistentState cold = fresh.persistent_state();
          const std::string where =
              std::string(core::to_string(method)) + " " +
              (options.similarity_mode == core::SimilarityMode::kJaccard
                   ? "jaccard"
                   : "t=" + std::to_string(options.similarity_threshold)) +
              ", seed " + std::to_string(seed) + ", batch " + std::to_string(batch);
          ASSERT_TRUE(live.users.similar_valid && live.perms.similar_valid) << where;
          EXPECT_EQ(live.users.similar_pairs, cold.users.similar_pairs) << where;
          EXPECT_EQ(live.perms.similar_pairs, cold.perms.similar_pairs) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, EnginePairCache, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "T" + std::to_string(info.param);
                         });

// ---- the norm-decided star and the pair-cache contract ----------------------
// At a Hamming threshold t >= 2 every two roles whose norms sum within t
// match on norms alone. No pair cache holds those pairs: every reaudit joins
// them as one star from the current norms. The batches move the star: a new
// row of the smallest norm m, rows grown out of S, a row emptied, m raised,
// then lowered again. Case names end in T1/T8 for the sanitizer jobs.

/// One axis of `d`: each role's sorted users (or permissions).
std::vector<std::vector<core::Id>> axis_rows(const core::RbacDataset& d, bool users) {
  std::vector<std::vector<core::Id>> rows(d.num_roles());
  for (core::Id r = 0; r < d.num_roles(); ++r) {
    const auto row = users ? d.users_of_role(r) : d.permissions_of_role(r);
    rows[r].assign(row.begin(), row.end());
  }
  return rows;
}

/// The matches of one axis at Hamming threshold t, by brute force: the
/// pairs norms alone decide, and the rest.
struct BruteMatches {
  core::methods::MatchedPairs norm_decided;
  core::methods::MatchedPairs content_decided;
};

BruteMatches brute_matches(const std::vector<std::vector<core::Id>>& rows, std::size_t t) {
  BruteMatches out;
  for (std::uint32_t a = 0; a < rows.size(); ++a) {
    for (std::uint32_t b = a + 1; b < rows.size(); ++b) {
      if (rows[a].empty() || rows[b].empty()) continue;
      std::vector<core::Id> shared;
      std::set_intersection(rows[a].begin(), rows[a].end(), rows[b].begin(), rows[b].end(),
                            std::back_inserter(shared));
      const std::size_t sum = rows[a].size() + rows[b].size();
      if (sum <= t) {
        out.norm_decided.emplace_back(a, b);
      } else if (sum - 2 * shared.size() <= t) {
        out.content_decided.emplace_back(a, b);
      }
    }
  }
  return out;
}

/// The batches that move the norm-decided star of norm_clique_dataset
/// (`singles` one-entry roles R0.. on both axes).
std::vector<RbacDelta> star_batches(std::size_t singles) {
  std::vector<RbacDelta> batches(5);
  // A new row of the smallest norm, m = 1.
  batches[0].assign_user("RX0", "UX0").grant_permission("RX0", "PX0");
  // R0 grows to norm 2 (out of S at t = 2), R2 to norm 3 (out of S at t = 3).
  batches[1].assign_user("R0", "UG0").grant_permission("R0", "PG0");
  for (const char* k : {"1", "2"}) {
    batches[1].assign_user("R2", std::string("UG2_") + k);
    batches[1].grant_permission("R2", std::string("PG2_") + k);
  }
  // R4 empties on both axes.
  batches[2].revoke_user("R4", "U4").revoke_permission("R4", "P2");
  // Every remaining one-entry row grows to norm 2: m rises to 2, and S empties.
  for (std::size_t r = 1; r < singles; ++r) {
    if (r == 2 || r == 4) continue;
    const std::string role = "R" + std::to_string(r);
    batches[3].assign_user(role, "UM" + std::to_string(r));
    batches[3].grant_permission(role, "PM" + std::to_string(r));
  }
  batches[3].assign_user("RX0", "UMX").grant_permission("RX0", "PMX");
  // A new one-entry row brings m back to 1.
  batches[4].assign_user("RX1", "UX1").grant_permission("RX1", "PX1");
  return batches;
}

class EngineNormStar : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineNormStar, EnginesEqualAuditAndCachesHoldOnlyContentDecidedPairs) {
  constexpr std::size_t kSingles = 40;
  const core::RbacDataset start = rolediet::testing::norm_clique_dataset(kSingles, 5, 4);
  for (const std::size_t t : {2u, 3u}) {
    for (const Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
      AuditOptions options;
      options.similarity_threshold = t;
      options.method = method;
      options.threads = GetParam();
      AuditEngine engine(start, options);
      engine.set_publish_versions(true);
      core::ShardedEngine sharded(start, 3, options);
      const std::vector<RbacDelta> batches = star_batches(kSingles);
      for (std::size_t step = 0; step <= batches.size(); ++step) {
        if (step > 0) {
          engine.apply(batches[step - 1]);
          sharded.apply(batches[step - 1]);
        }
        const std::string where = std::string(core::to_string(method)) + ", t=" +
                                  std::to_string(t) + ", step " + std::to_string(step);
        const AuditReport live = engine.reaudit();
        const core::RbacDataset snap = engine.snapshot();
        const AuditReport cold = core::audit(snap, options);
        ASSERT_EQ(canonical_text(live), canonical_text(cold)) << where;
        EXPECT_EQ(canonical_text(sharded.reaudit()), canonical_text(cold)) << where;
        if (step == 0) {
          // The clique is one similar group on each axis.
          ASSERT_FALSE(cold.similar_permission_groups.groups.empty()) << where;
          EXPECT_GE(cold.similar_permission_groups.groups.front().size(), kSingles) << where;
        }

        const core::EnginePersistentState state = engine.persistent_state();
        const std::shared_ptr<const core::EngineVersion> published = engine.published();
        ASSERT_NE(published, nullptr) << where;
        for (const bool users : {true, false}) {
          const std::string axis = where + (users ? ", users" : ", perms");
          const core::EnginePersistentState::AxisState& cache = users ? state.users : state.perms;
          const core::EnginePersistentState::AxisState& version =
              users ? published->state.users : published->state.perms;
          const std::vector<std::vector<core::Id>> rows = axis_rows(snap, users);
          const BruteMatches brute = brute_matches(rows, t);
          ASSERT_TRUE(cache.similar_valid) << axis;
          for (const auto& [a, b] : cache.similar_pairs) {
            EXPECT_GT(rows[a].size() + rows[b].size(), t) << axis << ": " << a << "-" << b;
          }
          EXPECT_LE(cache.similar_pairs.size(), brute.content_decided.size()) << axis;
          if (method != Method::kApproxMinhash) {
            EXPECT_EQ(cache.similar_pairs, brute.content_decided) << axis;
          }
          EXPECT_EQ(version.similar_pairs, cache.similar_pairs) << axis;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineNormStar, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "T" + std::to_string(info.param);
                         });

// A restored cache that still holds norm-decided pairs (snapshot format 1
// stored them) is sealed on restore, and the next reaudit equals a fresh
// audit.
TEST(EngineNormStar, RestoreDropsNormDecidedPairs) {
  constexpr std::size_t kSingles = 30;
  const core::RbacDataset start = rolediet::testing::norm_clique_dataset(kSingles, 4, 4);
  for (const Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
    AuditOptions options;
    options.similarity_threshold = 2;
    options.method = method;
    AuditEngine engine(start, options);
    (void)engine.reaudit();
    const core::EnginePersistentState sealed = engine.persistent_state();
    core::EnginePersistentState padded = sealed;
    for (const bool users : {true, false}) {
      core::methods::MatchedPairs& pairs = users ? padded.users.similar_pairs
                                                 : padded.perms.similar_pairs;
      const BruteMatches brute = brute_matches(axis_rows(start, users), 2);
      ASSERT_FALSE(brute.norm_decided.empty());
      pairs.insert(pairs.end(), brute.norm_decided.begin(), brute.norm_decided.end());
      std::sort(pairs.begin(), pairs.end());
    }
    const std::string where(core::to_string(method));

    AuditEngine restored(engine.snapshot(), options);
    restored.restore_persistent_state(padded);
    EXPECT_EQ(restored.persistent_state().users.similar_pairs, sealed.users.similar_pairs)
        << where;
    EXPECT_EQ(restored.persistent_state().perms.similar_pairs, sealed.perms.similar_pairs)
        << where;
    for (const RbacDelta& batch : star_batches(kSingles)) {
      restored.apply(batch);
      ASSERT_EQ(canonical_text(restored.reaudit()),
                canonical_text(core::audit(restored.snapshot(), options)))
          << where;
    }
  }
}

// HNSW is approximate by design: the maintained graph differs from a
// from-scratch build, so type-5 groups may differ. The engine still promises
// exactness everywhere else, and every type-5 pair it reports is exactly
// verified — so each reported group must sit inside one *exact* similarity
// component.
TEST(EngineHnsw, StructuralAndType4ExactAndType5Sound) {
  AuditOptions options;
  options.method = Method::kApproxHnsw;
  options.threads = 2;
  util::Xoshiro256 rng(0x415A);
  const core::RbacDataset start = seed_dataset(rng);
  std::size_t users = start.num_users();
  std::size_t roles = start.num_roles();
  std::size_t perms = start.num_permissions();

  AuditEngine engine(start, options);
  for (std::size_t batch = 0; batch < 5; ++batch) {
    engine.apply(random_batch(rng, users, roles, perms, 15));
    const AuditReport live = engine.reaudit();
    const core::RbacDataset snap = engine.snapshot();
    const AuditReport fresh = core::audit(snap, options);

    // Types 1-4 are exact even on the HNSW path.
    EXPECT_EQ(live.structural.standalone_roles, fresh.structural.standalone_roles);
    EXPECT_EQ(live.structural.roles_without_users, fresh.structural.roles_without_users);
    EXPECT_EQ(live.structural.single_user_roles, fresh.structural.single_user_roles);
    EXPECT_EQ(live.same_user_groups, fresh.same_user_groups);
    EXPECT_EQ(live.same_permission_groups, fresh.same_permission_groups);

    // Type 5: every engine group refines an exact-similarity component.
    const core::methods::DbscanGroupFinder exact;
    for (const auto& [groups, matrix] :
         {std::pair{&live.similar_user_groups, &snap.ruam()},
          std::pair{&live.similar_permission_groups, &snap.rpam()}}) {
      const core::RoleGroups reference =
          exact.find_similar(*matrix, options.similarity_threshold);
      // component id per role under the exact reference (SIZE_MAX = none).
      std::vector<std::size_t> component(matrix->rows(), SIZE_MAX);
      for (std::size_t g = 0; g < reference.groups.size(); ++g) {
        for (std::size_t role : reference.groups[g]) component[role] = g;
      }
      for (const auto& group : groups->groups) {
        ASSERT_GE(group.size(), 2u);
        const std::size_t expect = component[group.front()];
        ASSERT_NE(expect, SIZE_MAX) << "engine grouped a role no exact group contains";
        for (std::size_t role : group) {
          EXPECT_EQ(component[role], expect)
              << "engine group spans two exact components (unverified pair)";
        }
      }
    }
  }
}

// ------------------------------------------------------------ delta logic ---

TEST(Engine, VersionCountsEffectiveMutationsOnly) {
  core::RbacDataset d;
  d.add_user("u");
  d.add_role("r");
  AuditEngine engine(d);
  EXPECT_EQ(engine.version(), 0u);

  RbacDelta delta;
  delta.add_user("u").add_role("r");  // both already exist
  engine.apply(delta);
  EXPECT_EQ(engine.version(), 0u);

  RbacDelta effective;
  effective.assign_user("r", "u").assign_user("r", "u");  // second is a no-op
  engine.apply(effective);
  EXPECT_EQ(engine.version(), 1u);

  RbacDelta revoke;
  revoke.revoke_user("r", "u").revoke_user("r", "ghost").revoke_user("nope", "u");
  engine.apply(revoke);  // unknown names are no-ops, not interned
  EXPECT_EQ(engine.version(), 2u);
  EXPECT_EQ(engine.state().num_users(), 1u);
  EXPECT_EQ(engine.state().num_roles(), 1u);
}

TEST(Engine, DirtyFrontierClearsAfterReaudit) {
  core::RbacDataset d;
  d.add_user("u0");
  d.add_user("u1");
  d.add_role("r0");
  d.add_role("r1");
  d.assign_user(0, 0);
  d.assign_user(1, 0);
  AuditEngine engine(d);
  (void)engine.reaudit();
  EXPECT_EQ(engine.dirty_roles(), 0u);

  RbacDelta delta;
  delta.assign_user("r0", "u1");
  engine.apply(delta);
  EXPECT_EQ(engine.dirty_roles(), 1u);
  (void)engine.reaudit();
  EXPECT_EQ(engine.dirty_roles(), 0u);
}

// The engine's incremental claim: after a <= 1% delta a reaudit re-verifies
// strictly fewer similar-phase pairs than a batch audit of the same state,
// and still reports the batch findings. Fig. 3 at 600 roles, for every
// method that caches pair verdicts, in both similarity modes.
TEST(Engine, DeltaReauditVerifiesFewerPairsThanBatch) {
  const core::RbacDataset dataset = testing::fig3_dataset(600);
  const std::size_t edges = dataset.ruam().nnz() + dataset.rpam().nnz();
  RbacDelta delta;
  delta.mutations = testing::build_trace(dataset, edges / 100, 0x2EAD17);
  for (auto mode : {core::SimilarityMode::kHamming, core::SimilarityMode::kJaccard}) {
    for (Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
      AuditOptions options;
      options.method = method;
      options.similarity_mode = mode;
      AuditEngine engine(dataset, options);
      (void)engine.reaudit();
      engine.apply(delta);
      const AuditReport live = engine.reaudit();
      const AuditReport batch = core::audit(engine.snapshot(), options);
      const std::string where = std::string(core::to_string(method)) +
                                (mode == core::SimilarityMode::kJaccard ? " jaccard" : " hamming");
      EXPECT_EQ(canonical_text(live), canonical_text(batch)) << where;
      EXPECT_LT(testing::similar_pairs(live), testing::similar_pairs(batch)) << where;
    }
  }
}

TEST(Engine, DegenerateThresholdsStayBatchExact) {
  // t = 0 (hamming) and jaccard 0 / 1 take the finders' shortcut paths and
  // are recomputed in full each pass — the contract must hold regardless.
  util::Xoshiro256 rng(0xDE9E);
  const core::RbacDataset start = seed_dataset(rng);
  std::size_t users = start.num_users();
  std::size_t roles = start.num_roles();
  std::size_t perms = start.num_permissions();

  std::vector<AuditOptions> variants;
  AuditOptions hamming0;
  hamming0.similarity_threshold = 0;
  variants.push_back(hamming0);
  for (double j : {0.0, 1.0}) {
    AuditOptions opt;
    opt.similarity_mode = core::SimilarityMode::kJaccard;
    opt.jaccard_dissimilarity = j;
    variants.push_back(opt);
  }
  for (const AuditOptions& options : variants) {
    util::Xoshiro256 trace(0xF00 + static_cast<std::uint64_t>(options.jaccard_dissimilarity));
    std::size_t u = users, r = roles, p = perms;
    AuditEngine engine(start, options);
    for (std::size_t batch = 0; batch < 3; ++batch) {
      engine.apply(random_batch(trace, u, r, p, 10));
      ASSERT_EQ(canonical_text(engine.reaudit()),
                canonical_text(core::audit(engine.snapshot(), options)));
    }
  }
}

TEST(Engine, LargestHammingThresholdStaysBatchExact) {
  // The largest threshold the CLI accepts, where t + 1 wraps to 0: every
  // non-empty pair matches. The batch finder, the delta reaudit and the
  // sharded exchange each build a prefix index at this threshold.
  AuditOptions options;
  options.similarity_threshold = std::numeric_limits<std::size_t>::max();
  for (Method method : {Method::kRoleDiet, Method::kExactDbscan}) {
    options.method = method;
    util::Xoshiro256 rng(0x3A11);
    const core::RbacDataset start = seed_dataset(rng);
    std::size_t users = start.num_users();
    std::size_t roles = start.num_roles();
    std::size_t perms = start.num_permissions();
    AuditEngine engine(start, options);
    core::ShardedEngine sharded(start, 3, options);
    (void)engine.reaudit();
    for (std::size_t batch = 0; batch < 3; ++batch) {
      const RbacDelta delta = random_batch(rng, users, roles, perms, 12);
      engine.apply(delta);
      sharded.apply(delta);
      const AuditReport live = engine.reaudit();
      const core::RbacDataset snap = engine.snapshot();
      const AuditReport cold = core::audit(snap, options);
      const std::string where = std::string(core::to_string(method)) + ", batch " +
                                std::to_string(batch);
      ASSERT_EQ(canonical_text(live), canonical_text(cold)) << where;
      EXPECT_EQ(canonical_text(sharded.reaudit()), canonical_text(cold)) << where;
      std::size_t with_users = 0;
      for (core::Id r = 0; r < snap.num_roles(); ++r) with_users += !snap.users_of_role(r).empty();
      ASSERT_EQ(cold.similar_user_groups.group_count(), 1u) << where;
      EXPECT_EQ(cold.similar_user_groups.roles_in_groups(), with_users) << where;
    }
  }
}

TEST(Engine, BudgetInterruptionInvalidatesAndRecovers) {
  // A budget that kills every phase must not poison the caches: lifting it
  // has the next reaudit() fall back to full passes and re-converge on the
  // batch answer.
  util::Xoshiro256 rng(0xB0D9);
  const core::RbacDataset start = seed_dataset(rng);
  std::size_t users = start.num_users();
  std::size_t roles = start.num_roles();
  std::size_t perms = start.num_permissions();

  AuditOptions options;
  AuditEngine engine(start, options);
  (void)engine.reaudit();  // seed the artifacts

  engine.apply(random_batch(rng, users, roles, perms, 10));
  engine.set_time_budget(1e-12);
  const AuditReport starved = engine.reaudit();
  EXPECT_TRUE(starved.similar_users_time.timed_out ||
              starved.similar_permissions_time.timed_out ||
              starved.same_users_time.timed_out || starved.same_permissions_time.timed_out);

  engine.set_time_budget(0.0);
  engine.apply(random_batch(rng, users, roles, perms, 10));
  EXPECT_EQ(canonical_text(engine.reaudit()),
            canonical_text(core::audit(engine.snapshot(), options)));

  EXPECT_THROW(engine.set_time_budget(-1.0), std::invalid_argument);
}

TEST(Engine, AuditWrapperEqualsFirstReaudit) {
  util::Xoshiro256 rng(0x0A0D);
  const core::RbacDataset d = seed_dataset(rng);
  AuditOptions options;
  options.threads = 2;
  AuditEngine engine(d, options);
  EXPECT_EQ(canonical_text(engine.reaudit()), canonical_text(core::audit(d, options)));
}

// ---- audit() == the engine's first pass -------------------------------------
// audit() runs the batch phases on the dataset's own matrices; the engine's
// first reaudit() runs them on the rows it copied and compiled, with the
// pair-cache sink armed. Different state, same phases: everything but the
// timings must agree, work counters included.

void expect_same_work(const core::FinderWorkStats& a, const core::FinderWorkStats& b,
                      const std::string& where) {
  EXPECT_EQ(a.rows_processed, b.rows_processed) << where;
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated) << where;
  EXPECT_EQ(a.pairs_matched, b.pairs_matched) << where;
  EXPECT_EQ(a.merges, b.merges) << where;
  EXPECT_EQ(a.merge_conflicts, b.merge_conflicts) << where;
}

void expect_audit_equals_first_pass(const core::RbacDataset& d, const AuditOptions& options,
                                    const std::string& where) {
  const AuditReport one_shot = core::audit(d, options);
  const AuditReport first = AuditEngine(d, options).reaudit();
  EXPECT_EQ(canonical_text(one_shot), canonical_text(first)) << where;
  EXPECT_EQ(one_shot.dataset_digest, first.dataset_digest) << where;
  EXPECT_EQ(one_shot.engine_version, first.engine_version) << where;  // 0: one-shot
  EXPECT_EQ(one_shot.num_user_assignments, first.num_user_assignments) << where;
  EXPECT_EQ(one_shot.num_permission_grants, first.num_permission_grants) << where;
  EXPECT_EQ(one_shot.structural, first.structural) << where;
  EXPECT_EQ(one_shot.same_user_groups, first.same_user_groups) << where;
  EXPECT_EQ(one_shot.same_permission_groups, first.same_permission_groups) << where;
  EXPECT_EQ(one_shot.similar_user_groups, first.similar_user_groups) << where;
  EXPECT_EQ(one_shot.similar_permission_groups, first.similar_permission_groups) << where;
  expect_same_work(one_shot.same_users_work, first.same_users_work, where + " same-users");
  expect_same_work(one_shot.same_permissions_work, first.same_permissions_work,
                   where + " same-perms");
  expect_same_work(one_shot.similar_users_work, first.similar_users_work,
                   where + " similar-users");
  expect_same_work(one_shot.similar_permissions_work, first.similar_permissions_work,
                   where + " similar-perms");
  for (const auto& [a, b] :
       {std::pair{&one_shot.same_users_time, &first.same_users_time},
        {&one_shot.same_permissions_time, &first.same_permissions_time},
        {&one_shot.similar_users_time, &first.similar_users_time},
        {&one_shot.similar_permissions_time, &first.similar_permissions_time}}) {
    EXPECT_EQ(a->timed_out, b->timed_out) << where;
  }
}

TEST(AuditEqualsFirstPass, EveryMethodThresholdAndThreadCount) {
  for (const std::uint64_t seed : {0xA11Du, 0xB22Eu, 0xC33Fu}) {
    util::Xoshiro256 rng(seed);
    const core::RbacDataset d = seed_dataset(rng);
    for (const Method method : {Method::kExactDbscan, Method::kApproxHnsw,
                                Method::kApproxMinhash, Method::kRoleDiet}) {
      for (const std::size_t threads : {1u, 4u}) {
        AuditOptions options;
        options.method = method;
        options.threads = threads;
        for (const std::size_t t : {0u, 1u, 2u}) {
          options.similarity_mode = core::SimilarityMode::kHamming;
          options.similarity_threshold = t;
          expect_audit_equals_first_pass(d, options,
                                         std::string(core::to_string(method)) + " t=" +
                                             std::to_string(t) + " threads=" +
                                             std::to_string(threads));
        }
        options.similarity_mode = core::SimilarityMode::kJaccard;
        options.jaccard_dissimilarity = 0.4;
        expect_audit_equals_first_pass(
            d, options,
            std::string(core::to_string(method)) + " j=0.4 threads=" + std::to_string(threads));
        options.detect_similar = false;
        expect_audit_equals_first_pass(
            d, options,
            std::string(core::to_string(method)) + " similar=off threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(AuditEqualsFirstPass, ExhaustedBudgetSkipsTheSamePhases) {
  util::Xoshiro256 rng(0x5C1F);
  const core::RbacDataset d = seed_dataset(rng);
  AuditOptions options;
  options.time_budget_s = 1e-12;  // expired before the first group-finding phase
  expect_audit_equals_first_pass(d, options, "starved");
  const AuditReport one_shot = core::audit(d, options);
  for (const core::PhaseTiming* t :
       {&one_shot.same_users_time, &one_shot.same_permissions_time,
        &one_shot.similar_users_time, &one_shot.similar_permissions_time}) {
    EXPECT_TRUE(t->timed_out);
    EXPECT_EQ(t->seconds, 0.0);
  }
  // The structural phase is not budgeted: seed_dataset leaves every 7th role empty.
  EXPECT_FALSE(one_shot.structural.standalone_roles.empty());
}

TEST(AuditEqualsFirstPass, NormDecidedClique) {
  // 2,000 roles of one distinct permission each: at t = 2 every pair matches
  // on norms alone. audit() arms no pair sink, so it never holds the ~2M
  // matched pairs the engine's cache seeding collects.
  constexpr std::size_t kRoles = 2000;
  core::RbacDataset d;
  d.add_users(3 * kRoles);
  d.add_roles(kRoles);
  d.add_permissions(kRoles);
  for (core::Id r = 0; r < kRoles; ++r) {
    for (core::Id k = 0; k < 3; ++k) d.assign_user(r, 3 * r + k);  // disjoint, not tiny
    d.grant_permission(r, r);
  }
  AuditOptions options;
  options.similarity_threshold = 2;
  expect_audit_equals_first_pass(d, options, "clique");
  const AuditReport one_shot = core::audit(d, options);
  ASSERT_EQ(one_shot.similar_permission_groups.group_count(), 1u);
  EXPECT_EQ(one_shot.similar_permission_groups.roles_in_groups(), kRoles);
  EXPECT_EQ(one_shot.similar_permissions_work.pairs_matched, kRoles * (kRoles - 1) / 2);
  EXPECT_EQ(one_shot.similar_user_groups.group_count(), 0u);
}

TEST(Engine, RejectsInvalidOptions) {
  core::RbacDataset d;
  AuditOptions bad;
  bad.jaccard_dissimilarity = 1.5;
  EXPECT_THROW(AuditEngine(d, bad), std::invalid_argument);
  bad = AuditOptions{};
  bad.time_budget_s = -1.0;
  EXPECT_THROW(AuditEngine(d, bad), std::invalid_argument);
}

TEST(Engine, DatasetDigestIsPinned) {
  // Every report carries dataset_digest and stores compare it, so its value
  // is a compatibility contract, not just a relative check: a refactor that
  // reorders names or rows must fail here. Hostile names (comma, quote,
  // newline, non-ASCII, empty), a repeated raw edge, a role without users
  // and a standalone permission.
  core::RbacDataset d;
  const core::Id pat = d.add_user("o'brien, pat");
  const core::Id nobody = d.add_user("");
  const core::Id ana = d.add_user("ana");
  const core::Id ops = d.add_role("ops\nadmins");
  const core::Id cafe = d.add_role("caf\xC3\xA9");
  const core::Id quoted = d.add_role("\"quoted\"");
  const core::Id get = d.add_permission("s3:Get");
  const core::Id put = d.add_permission("s3:Put,Delete");
  d.add_permission("orphan");
  d.assign_user(cafe, nobody);
  d.assign_user(ops, ana);
  d.assign_user(ops, pat);
  d.assign_user(ops, ana);  // repeated raw edge
  d.grant_permission(quoted, get);
  d.grant_permission(ops, put);
  d.grant_permission(ops, get);
  d.grant_permission(cafe, put);

  constexpr std::uint64_t kPinned = 0x803314BCD804D2B4ULL;  // stored digests depend on it
  EXPECT_EQ(core::dataset_content_digest(d), kPinned);
  EXPECT_EQ(core::dataset_content_digest(core::IncrementalAuditor(d)), kPinned);
  EXPECT_EQ(core::audit(d).dataset_digest, kPinned);
  EXPECT_EQ(core::dataset_content_digest(AuditEngine(d).snapshot()), kPinned);
  EXPECT_EQ(core::ShardedEngine(d, 3).reaudit().dataset_digest, kPinned);
}

TEST(ContentDigest, U64EqualsTheByteLoop) {
  // u64() folds a value's high zero bytes into one multiply; the state must
  // equal feeding all eight little-endian bytes one at a time.
  const auto byte_loop = [](std::uint64_t v) {
    core::ContentDigest d;
    unsigned char buf[8];
    for (std::size_t i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    d.bytes(buf, sizeof(buf));
    return d.value();
  };
  const auto folded = [](std::uint64_t v) {
    core::ContentDigest d;
    d.u64(v);
    return d.value();
  };
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       (1ULL << 8) - 1,
                                       1ULL << 8,
                                       (1ULL << 32) - 1,
                                       1ULL << 63,
                                       std::numeric_limits<std::uint64_t>::max()};
  util::Xoshiro256 rng(0xF01D);
  for (int i = 0; i < 1000; ++i) values.push_back(rng() >> rng.bounded(64));  // every width
  for (const std::uint64_t v : values) EXPECT_EQ(folded(v), byte_loop(v)) << v;

  // A running state, not just the offset basis: chain every value.
  core::ContentDigest chained;
  core::ContentDigest reference;
  for (const std::uint64_t v : values) {
    chained.u64(v);
    unsigned char buf[8];
    for (std::size_t i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    reference.bytes(buf, sizeof(buf));
  }
  EXPECT_EQ(chained.value(), reference.value());
}

// ---------------------------------------------------------------- journal ---

TEST(Journal, RoundTripsHostileNames) {
  RbacDelta delta;
  delta.add_user("plain")
      .add_role("has,comma")
      .add_permission("has\"quote\"")
      .assign_user("has,comma", "line\nbreak")
      .revoke_user("r", "\"")
      .grant_permission("trailing space ", "\ttab")
      .revoke_permission("", "empty-role-name");

  std::ostringstream out;
  io::write_journal(out, delta);
  std::istringstream in(out.str());
  EXPECT_EQ(io::read_journal(in), delta);
}

TEST(Journal, FileRoundTripAndReplayEquivalence) {
  const auto path =
      std::filesystem::temp_directory_path() / "rolediet_journal_test.csv";
  RbacDelta delta;
  delta.add_role("admins").assign_user("admins", "alice").assign_user("admins", "bob");
  delta.grant_permission("admins", "s3:Get").revoke_user("admins", "bob");
  io::save_journal(path, delta);
  EXPECT_EQ(io::load_journal(path), delta);
  std::filesystem::remove(path);

  // Applying the journal reproduces applying the delta.
  core::RbacDataset d;
  AuditEngine a(d), b(d);
  a.apply(delta);
  std::ostringstream out;
  io::write_journal(out, delta);
  std::istringstream in(out.str());
  b.apply(io::read_journal(in));
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(canonical_text(a.reaudit()), canonical_text(b.reaudit()));
}

TEST(Journal, BlankRecordsSkippedAndErrorsCarryLineNumbers) {
  std::istringstream ok("\nadd-user,alice\n\n\nassign-user,r,alice\n");
  const RbacDelta parsed = io::read_journal(ok);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.mutations[0].kind, MutationKind::kAddUser);
  EXPECT_EQ(parsed.mutations[1].kind, MutationKind::kAssignUser);

  auto expect_error = [](const std::string& text, const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)io::read_journal(in);
      FAIL() << "expected CsvError for: " << text;
    } catch (const io::CsvError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("add-user,a\nfrobnicate,b\n", "line 2");
  expect_error("frobnicate,b\n", "unknown mutation tag");
  expect_error("assign-user,only-role\n", "takes 2 field(s)");
  expect_error("add-user,a,b\n", "takes 1 field(s)");
}

TEST(Journal, StreamingReaderReportsLines) {
  std::istringstream in("add-user,a\n\nadd-role,\"multi\nline\"\n");
  io::JournalReader reader(in);
  Mutation m;
  ASSERT_TRUE(reader.next(m));
  EXPECT_EQ(m.entity, "a");
  ASSERT_TRUE(reader.next(m));
  EXPECT_EQ(m.kind, MutationKind::kAddRole);
  EXPECT_EQ(m.entity, "multi\nline");
  EXPECT_EQ(reader.line(), 4u);  // quoted record spans physical lines 3-4
  EXPECT_FALSE(reader.next(m));
}

}  // namespace
}  // namespace rolediet
