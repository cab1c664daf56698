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

#include <cstdio>
#include <filesystem>
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
