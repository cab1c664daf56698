// AuditService tests: snapshot isolation under concurrent readers/writers,
// admission control, deadlines, and the checkpoint-from-published-version
// regression.
//
// The central property (stress suite): every answer a ReadSession serves is
// byte-identical to a fresh batch core::audit() of the session's pinned
// dataset — whatever the writer is doing concurrently. That is the
// engine-contract identity (reaudit == batch audit of snapshot) lifted
// through the publication seam; it holds for every method except
// approx-hnsw (whose maintained graph is history-dependent by design), so
// the stress runs the exact default method.
//
// The *T8* cases and ReadCompletesWhileReauditInFlight are the multithreaded
// ones; CI runs exactly those under ThreadSanitizer (.github/workflows/ci.yml),
// which turns "no data races by construction" into a checked claim.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/digest.hpp"
#include "core/engine.hpp"
#include "core/framework.hpp"
#include "fig3_workload.hpp"
#include "gen/matrix_generator.hpp"
#include "service/audit_service.hpp"
#include "store/engine_store.hpp"
#include "store/snapshot.hpp"
#include "test_helpers.hpp"

namespace rolediet {
namespace {

using testing::build_trace;
using testing::ScopedTempDir;

/// Small generated dataset; `dense` controls row density (both shapes keep
/// the fresh batch audit well under a millisecond, so readers can afford to
/// re-audit every pinned version from scratch).
core::RbacDataset small_dataset(bool dense) {
  gen::MatrixGenParams params;
  params.roles = dense ? 40 : 60;
  params.cols = dense ? 50 : 400;
  params.clustered_fraction = dense ? 0.5 : 0.2;
  params.max_cluster_size = 6;
  params.seed = dense ? 101 : 202;
  const linalg::CsrMatrix ruam = gen::generate_matrix(params).matrix;
  params.seed = dense ? 303 : 404;
  const linalg::CsrMatrix rpam = gen::generate_matrix(params).matrix;

  core::RbacDataset dataset;
  dataset.add_users(ruam.cols());
  dataset.add_permissions(rpam.cols());
  dataset.add_roles(params.roles);
  for (std::size_t r = 0; r < params.roles; ++r) {
    for (std::uint32_t u : ruam.row(r)) dataset.assign_user(static_cast<core::Id>(r), u);
    for (std::uint32_t p : rpam.row(r)) dataset.grant_permission(static_cast<core::Id>(r), p);
  }
  return dataset;
}

/// Byte-identity of everything the version claims about its dataset: the
/// findings blocks, the shape, and the content digest. Timings and work
/// counters are excluded — the engine's steady-state type-4/5 counting
/// legitimately differs from the batch pipeline's (engine contract).
void expect_version_matches_fresh_audit(const core::EngineVersion& version) {
  ASSERT_NE(version.dataset, nullptr);
  const core::AuditReport fresh = core::audit(*version.dataset, version.report.options);
  const core::AuditReport& served = version.report;

  EXPECT_EQ(served.structural, fresh.structural);
  EXPECT_EQ(served.same_user_groups, fresh.same_user_groups);
  EXPECT_EQ(served.same_permission_groups, fresh.same_permission_groups);
  EXPECT_EQ(served.similar_user_groups, fresh.similar_user_groups);
  EXPECT_EQ(served.similar_permission_groups, fresh.similar_permission_groups);
  EXPECT_EQ(served.num_users, fresh.num_users);
  EXPECT_EQ(served.num_roles, fresh.num_roles);
  EXPECT_EQ(served.num_permissions, fresh.num_permissions);
  EXPECT_EQ(served.num_user_assignments, fresh.num_user_assignments);
  EXPECT_EQ(served.num_permission_grants, fresh.num_permission_grants);
  EXPECT_EQ(served.dataset_digest, fresh.dataset_digest);
  EXPECT_EQ(served.dataset_digest, core::dataset_content_digest(*version.dataset));
}

/// The stress harness: `readers` concurrent reader threads re-audit every
/// pinned version from scratch while the writer drains a mutation trace
/// through reaudits and checkpoints.
void run_stress(std::size_t readers, bool dense, std::size_t shards) {
  const core::RbacDataset dataset = small_dataset(dense);
  const std::vector<core::Mutation> trace = build_trace(dataset, 60, 42 + shards);

  ScopedTempDir dir("service_stress");
  core::AuditOptions options;  // role-diet (exact) — the identity holds
  service::ServiceOptions service_options;
  service_options.shards = shards;
  service_options.reaudit_every = 2;
  service_options.checkpoint_every = 2;
  service_options.max_readers = readers + 1;
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;

  service::AuditService svc(dir.path(), dataset, options, service_options, store_options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> fleet;
  fleet.reserve(readers);
  for (std::size_t t = 0; t < readers; ++t) {
    fleet.emplace_back([&] {
      std::uint64_t last_audits = 0;
      while (!done.load(std::memory_order_acquire)) {
        const service::ReadSession session = svc.begin_read();
        const core::EngineVersion& version = session.version();
        // Publication is monotone per reader: a later pin never goes back.
        EXPECT_GE(version.audits, last_audits);
        last_audits = version.audits;
        expect_version_matches_fresh_audit(version);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::size_t cursor = 0;
  while (cursor < trace.size()) {
    core::RbacDelta delta;
    for (std::size_t m = 0; m < 5 && cursor < trace.size(); ++m)
      delta.mutations.push_back(trace[cursor++]);
    ASSERT_TRUE(svc.submit(std::move(delta)));
  }
  svc.stop();
  done.store(true, std::memory_order_release);
  for (std::thread& t : fleet) t.join();

  ASSERT_EQ(svc.writer_error(), nullptr);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(svc.stats().batches_applied.load(), (trace.size() + 4) / 5);
  EXPECT_EQ(svc.stats().mutations_applied.load(), trace.size());
  // Baseline + one per reaudit_every batches + the final drain pass.
  EXPECT_GE(svc.stats().versions_published.load(), 2u);
  EXPECT_GE(svc.stats().checkpoints.load(), 1u);

  // The final published version reflects the entire trace.
  const auto last = svc.current_version();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->version, trace.size());
  expect_version_matches_fresh_audit(*last);
}

// {1,8} reader threads x dense/sparse x flat/sharded. The T8-suffixed cases
// are the ones CI runs under TSan.
TEST(ServiceStress, FlatDenseSingleReader) { run_stress(1, true, 0); }
TEST(ServiceStress, FlatSparseSingleReader) { run_stress(1, false, 0); }
TEST(ServiceStress, ShardedDenseSingleReader) { run_stress(1, true, 3); }
TEST(ServiceStress, ShardedSparseSingleReader) { run_stress(1, false, 3); }
TEST(ServiceStress, FlatDenseReadersT8) { run_stress(8, true, 0); }
TEST(ServiceStress, FlatSparseReadersT8) { run_stress(8, false, 0); }
TEST(ServiceStress, ShardedDenseReadersT8) { run_stress(8, true, 3); }
TEST(ServiceStress, ShardedSparseReadersT8) { run_stress(8, false, 3); }

// ---- admission control -----------------------------------------------------

TEST(ServiceAdmission, RejectsBeyondMaxReaders) {
  const core::RbacDataset dataset = small_dataset(true);
  ScopedTempDir dir("service_admission");
  service::ServiceOptions service_options;
  service_options.max_readers = 1;
  service::AuditService svc(dir.path(), dataset, {}, service_options);

  {
    const service::ReadSession session = svc.begin_read();
    EXPECT_THROW((void)svc.begin_read(), service::Overloaded);
    EXPECT_EQ(svc.stats().reads_rejected.load(), 1u);
    (void)session.report();  // the admitted session keeps working
  }
  // Slot released on session destruction: admission recovers.
  const service::ReadSession session = svc.begin_read();
  EXPECT_GE(session.version().audits, 1u);
  EXPECT_EQ(svc.stats().reads_admitted.load(), 2u);
}

TEST(ServiceAdmission, TrySubmitRejectsWhenQueueFull) {
  const core::RbacDataset dataset = small_dataset(true);
  ScopedTempDir dir("service_queue");
  service::ServiceOptions service_options;
  service_options.max_queue = 1;
  service_options.reaudit_every = 1000;  // keep the writer from draining instantly
  service::AuditService svc(dir.path(), dataset, {}, service_options);

  // The writer races the producer, so "queue full" cannot be forced
  // deterministically from outside — but over enough try_submits against a
  // capacity-1 queue either every one is admitted (writer kept up) or some
  // throw Overloaded; both are clean outcomes, and nothing blocks.
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 200; ++i) {
    core::RbacDelta delta;
    delta.add_user("try-user-" + std::to_string(i));
    try {
      if (svc.try_submit(std::move(delta))) ++admitted;
    } catch (const service::Overloaded&) {
      ++rejected;
    }
  }
  EXPECT_EQ(admitted + rejected, 200u);
  svc.stop();
  ASSERT_EQ(svc.writer_error(), nullptr);
  EXPECT_EQ(svc.stats().batches_applied.load(), admitted);
  // Stopped service: blocking and non-blocking submits both report closure.
  core::RbacDelta late;
  late.add_user("too-late");
  EXPECT_FALSE(svc.submit(late));
  EXPECT_FALSE(svc.try_submit(late));
}

// ---- deadlines -------------------------------------------------------------

TEST(ServiceDeadline, ExpiredSessionThrowsOnEveryAccessor) {
  const core::RbacDataset dataset = small_dataset(true);
  ScopedTempDir dir("service_deadline");
  service::AuditService svc(dir.path(), dataset, {}, {});

  const service::ReadSession session = svc.begin_read(1e-9);
  while (session.remaining_seconds() > 0.0) {
  }  // a nanosecond
  EXPECT_THROW((void)session.report(), service::DeadlineExpired);
  EXPECT_THROW((void)session.findings(), service::DeadlineExpired);
  EXPECT_THROW((void)session.group_of("R0"), service::DeadlineExpired);
  EXPECT_THROW((void)session.version(), service::DeadlineExpired);

  // An unlimited session on the same service is unaffected.
  const service::ReadSession ok = svc.begin_read();
  EXPECT_NO_THROW((void)ok.report());
}

// ---- reader API ------------------------------------------------------------

TEST(ServiceReads, GroupOfAnswersFromPinnedVersionOnly) {
  // Two roles with identical user/permission sets, plus one unrelated role.
  core::RbacDataset dataset;
  const core::Id u0 = dataset.add_user("u0");
  const core::Id u1 = dataset.add_user("u1");
  const core::Id p0 = dataset.add_permission("p0");
  const core::Id twin_a = dataset.add_role("twin-a");
  const core::Id twin_b = dataset.add_role("twin-b");
  const core::Id other = dataset.add_role("other");
  for (core::Id r : {twin_a, twin_b}) {
    dataset.assign_user(r, u0);
    dataset.assign_user(r, u1);
    dataset.grant_permission(r, p0);
  }
  dataset.assign_user(other, u0);

  ScopedTempDir dir("service_reads");
  core::AuditOptions options;
  options.detect_similar = false;
  service::AuditService svc(dir.path(), dataset, options, {});

  const service::ReadSession session = svc.begin_read();
  const service::RoleMembership membership = session.group_of("twin-a");
  ASSERT_TRUE(membership.known);
  ASSERT_EQ(membership.same_users.size(), 1u);
  EXPECT_EQ(membership.same_users.front(), "twin-b");
  ASSERT_EQ(membership.same_permissions.size(), 1u);
  EXPECT_EQ(membership.same_permissions.front(), "twin-b");
  EXPECT_FALSE(session.group_of("never-seen").known);

  // A role interned *after* the pin is invisible to this session even once a
  // newer version is published — that is what snapshot isolation means.
  core::RbacDelta delta;
  delta.add_role("late-role");
  ASSERT_TRUE(svc.submit(std::move(delta)));
  svc.stop();
  ASSERT_EQ(svc.writer_error(), nullptr);
  EXPECT_FALSE(session.group_of("late-role").known);
  EXPECT_TRUE(svc.begin_read().group_of("late-role").known);

  const service::Findings findings = session.findings();
  EXPECT_EQ(&findings.structural, &session.report().structural);
}

// Non-blocking readers: some read starts AND completes inside one in-flight
// reaudit. The flag must still be set afterwards, and no version published
// meanwhile (the writer counts a publication after clearing the flag, so
// the count rules out one reaudit ending and the next starting around the
// read). Readers that wait on the writer cannot pass, even on one core.
TEST(ServiceReads, ReadCompletesWhileReauditInFlight) {
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kBatchSize = 24;
  const core::RbacDataset dataset = testing::fig3_dataset(600);
  const std::vector<core::Mutation> trace =
      build_trace(dataset, kBatches * kBatchSize, 0x5E12E + 600);
  ScopedTempDir dir("service_inflight");
  service::ServiceOptions service_options;
  service_options.reaudit_every = 1;
  service_options.checkpoint_every = 0;
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;
  service::AuditService svc(dir.path(), dataset, {}, service_options, store_options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> qualified{0};
  std::thread prober([&] {
    while (!done.load(std::memory_order_acquire) && qualified.load() == 0) {
      const std::uint64_t published = svc.stats().versions_published.load();
      if (!svc.reaudit_in_flight()) {
        std::this_thread::yield();
        continue;
      }
      const service::ReadSession session = svc.begin_read();
      (void)session.group_of(session.version().dataset->role_name(0));
      if (svc.reaudit_in_flight() && svc.stats().versions_published.load() == published)
        qualified.fetch_add(1);
    }
  });

  for (std::size_t b = 0; b < kBatches && qualified.load() == 0; ++b) {
    core::RbacDelta delta;
    delta.mutations.assign(trace.begin() + static_cast<std::ptrdiff_t>(b * kBatchSize),
                           trace.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatchSize));
    if (!svc.submit(std::move(delta))) break;
  }
  svc.stop();
  done.store(true, std::memory_order_release);
  prober.join();

  ASSERT_EQ(svc.writer_error(), nullptr);
  EXPECT_GT(qualified.load(), 0u) << "no read started and completed inside one reaudit";
}

// ---- checkpoint-from-published regression ----------------------------------

// The bug this guards against: checkpointing the *live* engine at the
// current WAL position while a delta batch is in flight bakes a
// half-applied state into an image claiming the full log prefix. The store
// must snapshot the last *published* version at its publish-time position
// instead, and recovery must replay the tail batch on top.
TEST(ServiceCheckpoint, SnapshotCarriesPublishedVersionNotLiveWriter) {
  const core::RbacDataset dataset = small_dataset(true);
  const std::vector<core::Mutation> trace = build_trace(dataset, 10, 7);
  ScopedTempDir dir("service_ckpt");
  core::AuditOptions options;
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;

  core::RbacDelta batch_a, batch_b;
  for (std::size_t i = 0; i < 5; ++i) batch_a.mutations.push_back(trace[i]);
  for (std::size_t i = 5; i < 10; ++i) batch_b.mutations.push_back(trace[i]);

  std::uint64_t published_digest = 0;
  std::uint64_t live_digest = 0;
  {
    store::EngineStore store =
        store::EngineStore::create(dir.path(), dataset, options, store_options);
    store.apply(batch_a);
    (void)store.reaudit();  // publishes the A-only state at 5 WAL records
    EXPECT_EQ(store.published_records(), batch_a.size());
    store.apply(batch_b);  // in flight past the published version

    published_digest = core::dataset_content_digest(*store.engine().published()->dataset);
    live_digest = core::dataset_content_digest(store.engine().state());
    ASSERT_NE(published_digest, live_digest);  // B really moved the state

    const std::filesystem::path snapshot_path = store.checkpoint();
    const store::EngineSnapshot snapshot = store::SnapshotReader(snapshot_path).read();
    // The image is the published state at its publish-time position — not
    // the live A+B state at the current position.
    EXPECT_EQ(snapshot.wal_records, batch_a.size());
    EXPECT_EQ(core::dataset_content_digest(snapshot.dataset), published_digest);
    EXPECT_EQ(snapshot.engine.version, batch_a.size());
  }

  // Recovery lands on the full committed state: snapshot A + replayed B.
  store::EngineStore recovered = store::EngineStore::open(dir.path(), options, store_options);
  EXPECT_EQ(recovered.recovery().snapshot_records, batch_a.size());
  EXPECT_EQ(recovered.recovery().replayed_records, batch_b.size());
  EXPECT_EQ(core::dataset_content_digest(recovered.engine().state()), live_digest);
}

// Before any reaudit there is no published version; checkpoint falls back to
// capturing the live engine (the single-threaded bootstrap path).
TEST(ServiceCheckpoint, FallsBackToLiveCaptureBeforeFirstPublish) {
  const core::RbacDataset dataset = small_dataset(true);
  const std::vector<core::Mutation> trace = build_trace(dataset, 4, 9);
  ScopedTempDir dir("service_ckpt_boot");
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;

  store::EngineStore store =
      store::EngineStore::create(dir.path(), dataset, {}, store_options);
  core::RbacDelta delta;
  delta.mutations = trace;
  store.apply(delta);
  const store::EngineSnapshot snapshot =
      store::SnapshotReader(store.checkpoint()).read();
  EXPECT_EQ(snapshot.wal_records, trace.size());
  EXPECT_EQ(core::dataset_content_digest(snapshot.dataset),
            core::dataset_content_digest(store.engine().state()));
}

}  // namespace
}  // namespace rolediet
