// Tests for the durable engine store: WAL framing/rotation/retention,
// snapshot round-trips and atomicity, EngineStore checkpoint/recover, and
// the hostile-name end-to-end property (journal -> WAL -> snapshot ->
// recover round-trips byte-identically).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/engine.hpp"
#include "fig3_workload.hpp"
#include "io/journal.hpp"
#include "store/engine_store.hpp"
#include "store/sharded_store.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "test_helpers.hpp"

namespace rolediet::store {
namespace {

namespace fs = std::filesystem;

using rolediet::testing::ScopedTempDir;
using rolediet::testing::figure1_dataset;
using rolediet::testing::build_trace;
using rolediet::testing::fig3_dataset;
using rolediet::testing::similar_pairs;

/// Findings-only rendering: timings and work counters zeroed, everything
/// else (groups, counts, engine version, dataset digest) kept byte-exact.
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

core::RbacDelta sample_delta() {
  core::RbacDelta delta;
  delta.add_role("R06")
      .assign_user("R06", "U01")
      .assign_user("R06", "U05")
      .grant_permission("R06", "P02")
      .revoke_user("R02", "U03")
      .grant_permission("R02", "P06");
  return delta;
}

// ---- WAL ------------------------------------------------------------------

TEST(Wal, SegmentNameRoundTrips) {
  EXPECT_EQ(wal_segment_name(0), "wal-00000000000000000000.log");
  EXPECT_EQ(wal_segment_start(fs::path(wal_segment_name(42))), 42u);
  EXPECT_EQ(wal_segment_start(fs::path(wal_segment_name(0))), 0u);
  EXPECT_FALSE(wal_segment_start(fs::path("snap-00000000000000000000.rdsnap")));
  EXPECT_FALSE(wal_segment_start(fs::path("wal-abc.log")));
  EXPECT_FALSE(wal_segment_start(fs::path("wal-0000000000000000000x.log")));
}

TEST(Wal, AppendedRecordsReadBackInOrder) {
  ScopedTempDir dir("wal");
  const core::RbacDelta delta = sample_delta();
  {
    Wal wal(dir.path(), FsyncPolicy::kEveryBatch, 1 << 20);
    wal.start(0, std::nullopt, 0);
    wal.append_batch(delta);
    EXPECT_EQ(wal.next_record(), delta.size());
  }
  WalSegmentReader reader(dir.file(wal_segment_name(0)));
  EXPECT_EQ(reader.start_record(), 0u);
  std::string payload;
  std::size_t i = 0;
  while (reader.next(payload)) {
    ASSERT_LT(i, delta.size());
    EXPECT_EQ(io::parse_journal_record(payload), delta.mutations[i]);
    ++i;
  }
  EXPECT_EQ(i, delta.size());
  EXPECT_EQ(reader.record_index(), delta.size());
}

TEST(Wal, RotationKeepsSegmentsContiguous) {
  ScopedTempDir dir("wal");
  Wal wal(dir.path(), FsyncPolicy::kNone, 64);  // tiny threshold: rotate often
  wal.start(0, std::nullopt, 0);
  core::RbacDelta delta;
  for (int i = 0; i < 20; ++i) delta.add_user("user-" + std::to_string(i));
  wal.append_batch(delta);

  const std::vector<fs::path> segments = list_wal_segments(dir.path());
  ASSERT_GT(segments.size(), 1u) << "tiny threshold should have rotated";
  std::uint64_t expected = 0;
  std::size_t records = 0;
  for (const fs::path& seg : segments) {
    WalSegmentReader reader(seg);
    EXPECT_EQ(reader.start_record(), expected);
    std::string payload;
    while (reader.next(payload)) ++records;
    expected = reader.record_index();
  }
  EXPECT_EQ(records, delta.size());
}

TEST(Wal, EveryFsyncPolicyCommitsRecords) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kEveryRecord, FsyncPolicy::kEveryBatch, FsyncPolicy::kNone}) {
    ScopedTempDir dir("wal");
    Wal wal(dir.path(), policy, 1 << 20);
    wal.start(0, std::nullopt, 0);
    wal.append(core::Mutation{core::MutationKind::kAddUser, "", "alice"});
    wal.append_batch(sample_delta());
    WalSegmentReader reader(dir.file(wal_segment_name(0)));
    std::string payload;
    std::size_t records = 0;
    while (reader.next(payload)) ++records;
    EXPECT_EQ(records, 1 + sample_delta().size()) << to_string(policy);
  }
}

TEST(Wal, TornTailReportsLastGoodBoundary) {
  ScopedTempDir dir("wal");
  {
    Wal wal(dir.path(), FsyncPolicy::kNone, 1 << 20);
    wal.start(0, std::nullopt, 0);
    wal.append_batch(sample_delta());
  }
  const fs::path seg = dir.file(wal_segment_name(0));
  // Chop one byte: the final record becomes torn; all earlier ones survive.
  fs::resize_file(seg, fs::file_size(seg) - 1);
  WalSegmentReader reader(seg);
  std::string payload;
  std::size_t records = 0;
  std::uint64_t boundary = reader.offset();
  try {
    while (reader.next(payload)) {
      ++records;
      boundary = reader.offset();
    }
    FAIL() << "expected WalTornTail";
  } catch (const WalTornTail&) {
    EXPECT_EQ(records, sample_delta().size() - 1);
    EXPECT_EQ(reader.offset(), boundary);
  }
}

TEST(Wal, TornHeaderThrowsDedicatedError) {
  ScopedTempDir dir("wal");
  const fs::path seg = dir.file(wal_segment_name(0));
  std::ofstream(seg, std::ios::binary) << "RDWAL";  // shorter than the header
  EXPECT_THROW(WalSegmentReader{seg}, WalTornHeader);
}

TEST(Wal, WrongMagicOrVersionIsNotTorn) {
  ScopedTempDir dir("wal");
  const fs::path seg = dir.file(wal_segment_name(0));
  std::ofstream(seg, std::ios::binary) << "NOTAWAL!" << std::string(12, '\0');
  try {
    WalSegmentReader reader(seg);
    FAIL() << "expected WalError";
  } catch (const WalTornHeader&) {
    FAIL() << "bad magic must be a hard error, not a torn header";
  } catch (const WalError&) {
  }
}

TEST(Wal, PruneBelowKeepsCoveringSegments) {
  ScopedTempDir dir("wal");
  Wal wal(dir.path(), FsyncPolicy::kNone, 1 << 20);
  wal.start(0, std::nullopt, 0);
  core::RbacDelta delta;
  for (int i = 0; i < 3; ++i) delta.add_user("u" + std::to_string(i));
  wal.append_batch(delta);  // records 0..2
  wal.rotate();             // segment at 3
  wal.append_batch(delta);  // no-op replays still produce records 3..5
  wal.rotate();             // segment at 6

  ASSERT_EQ(list_wal_segments(dir.path()).size(), 3u);
  wal.prune_below(2);  // segment [0,3) still holds record 2
  EXPECT_EQ(list_wal_segments(dir.path()).size(), 3u);
  wal.prune_below(3);  // segment [0,3) fully covered now
  const auto remaining = list_wal_segments(dir.path());
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(*wal_segment_start(remaining.front()), 3u);
}

// ---- snapshots ------------------------------------------------------------

TEST(Snapshot, RoundTripsEngineState) {
  ScopedTempDir dir("snap");
  core::AuditOptions options;
  options.similarity_threshold = 2;
  core::AuditEngine engine(figure1_dataset(), options);
  (void)engine.reaudit();        // populate pair caches
  engine.apply(sample_delta());  // leave a dirty frontier

  const EngineSnapshot snapshot = capture_snapshot(engine, 17);
  const fs::path path = SnapshotWriter(dir.path()).write(snapshot);
  EXPECT_EQ(path.filename().string(), snapshot_name(17));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp")) << "tmp file must not survive";

  const EngineSnapshot loaded = SnapshotReader(path).read();
  EXPECT_EQ(loaded.wal_records, 17u);
  EXPECT_EQ(loaded.fingerprint, snapshot.fingerprint);
  EXPECT_EQ(core::dataset_content_digest(loaded.dataset),
            core::dataset_content_digest(engine.state()));
  EXPECT_EQ(loaded.engine.version, engine.version());
  EXPECT_EQ(loaded.engine.audits, engine.audits());
  EXPECT_TRUE(loaded.engine.audited_once);
  EXPECT_EQ(loaded.engine.users.dirty, snapshot.engine.users.dirty);
  EXPECT_EQ(loaded.engine.users.similar_valid, snapshot.engine.users.similar_valid);
  EXPECT_EQ(loaded.engine.users.similar_pairs, snapshot.engine.users.similar_pairs);
  EXPECT_EQ(loaded.engine.perms.similar_pairs, snapshot.engine.perms.similar_pairs);
}

TEST(Snapshot, FlippedByteIsRejected) {
  ScopedTempDir dir("snap");
  core::AuditEngine engine(figure1_dataset(), {});
  const fs::path path = SnapshotWriter(dir.path()).write(capture_snapshot(engine, 0));

  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
  file.close();

  EXPECT_THROW((void)SnapshotReader(path).read(), std::exception);
}

/// Rewrites a snapshot's format-version field and re-digests the file
/// (FNV-1a over every byte after the magic), so a reader reaches the
/// version check with an intact file.
void patch_snapshot_format(const fs::path& file, std::uint32_t format) {
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 20u);
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<char>(format >> (8 * i));
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (std::size_t i = 8; i + 8 < bytes.size(); ++i) {
    digest = (digest ^ static_cast<unsigned char>(bytes[i])) * 0x100000001B3ULL;
  }
  for (int i = 0; i < 8; ++i) bytes[bytes.size() - 8 + i] = static_cast<char>(digest >> (8 * i));
  std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
}

// Format 2 keeps format 1's layout, but format 1's pair caches also held the
// pairs norms alone decide. A format-1 store still recovers: the engine drops
// those pairs and reports what a fresh audit reports. A revision this build
// does not know fails with the format-version error.
TEST(Snapshot, FormatOneCachesWithNormDecidedPairsRecover) {
  ScopedTempDir dir("snapv1");
  const core::RbacDataset base = rolediet::testing::norm_clique_dataset(30, 4, 4);
  core::AuditOptions options;
  options.similarity_threshold = 2;
  (void)EngineStore::create(dir.path(), base, options);

  core::AuditEngine engine(base, options);
  (void)engine.reaudit();
  EngineSnapshot snapshot = capture_snapshot(engine, 0);
  const core::EnginePersistentState sealed = snapshot.engine;
  for (core::EnginePersistentState::AxisState* axis :
       {&snapshot.engine.users, &snapshot.engine.perms}) {
    const bool users = axis == &snapshot.engine.users;
    const auto norm = [&](core::Id r) {
      return users ? base.users_of_role(r).size() : base.permissions_of_role(r).size();
    };
    const std::size_t before = axis->similar_pairs.size();
    for (core::Id a = 0; a < base.num_roles(); ++a) {
      for (core::Id b = a + 1; b < base.num_roles(); ++b) {
        if (norm(a) > 0 && norm(b) > 0 && norm(a) + norm(b) <= 2) {
          axis->similar_pairs.emplace_back(a, b);
        }
      }
    }
    ASSERT_GT(axis->similar_pairs.size(), before);
    std::sort(axis->similar_pairs.begin(), axis->similar_pairs.end());
  }
  const fs::path file = SnapshotWriter(dir.path()).write(snapshot);  // replaces snap-0
  patch_snapshot_format(file, 1);
  EXPECT_EQ(SnapshotReader(file).read().engine.perms.similar_pairs,
            snapshot.engine.perms.similar_pairs);

  EngineStore reopened = EngineStore::open(dir.path(), options);
  EXPECT_FALSE(reopened.recovery().caches_dropped);
  EXPECT_EQ(reopened.engine().persistent_state().users.similar_pairs, sealed.users.similar_pairs);
  EXPECT_EQ(reopened.engine().persistent_state().perms.similar_pairs, sealed.perms.similar_pairs);
  EXPECT_EQ(findings_text(reopened.engine().reaudit()),
            findings_text(core::audit(base, options)));

  patch_snapshot_format(file, 3);
  try {
    (void)SnapshotReader(file).read();
    ADD_FAILURE() << "format 3 must not read";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("has format version 3"), std::string::npos) << e.what();
  }
}

TEST(Snapshot, ListingIgnoresTmpLeftovers) {
  ScopedTempDir dir("snap");
  core::AuditEngine engine(figure1_dataset(), {});
  SnapshotWriter writer(dir.path());
  (void)writer.write(capture_snapshot(engine, 0));
  (void)writer.write(capture_snapshot(engine, 5));
  // A crash mid-checkpoint leaves a stale tmp; it must never be picked up.
  std::ofstream(dir.file(snapshot_name(9) + ".tmp"), std::ios::binary) << "garbage";

  const std::vector<fs::path> snaps = list_snapshots(dir.path());
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(*snapshot_records(snaps.back()), 5u);
}

// ---- EngineStore ----------------------------------------------------------

TEST(EngineStore, CreateRefusesExistingStore) {
  ScopedTempDir dir("store");
  const core::RbacDataset dataset = figure1_dataset();
  (void)EngineStore::create(dir.path(), dataset, {});
  EXPECT_THROW((void)EngineStore::create(dir.path(), dataset, {}), StoreError);
}

TEST(EngineStore, CreateRefusesAShardedStore) {
  ScopedTempDir dir("store");
  const core::RbacDataset dataset = figure1_dataset();
  (void)ShardedEngineStore::create(dir.path(), dataset, 2, {});
  EXPECT_THROW((void)EngineStore::create(dir.path(), dataset, {}), StoreError);
}

TEST(EngineStore, RecoversExactEngineAfterCleanShutdown) {
  ScopedTempDir dir("store");
  const core::RbacDataset base = figure1_dataset();
  core::AuditOptions options;
  options.similarity_threshold = 2;

  {
    EngineStore store = EngineStore::create(dir.path(), base, options);
    (void)store.engine().reaudit();
    store.apply(sample_delta());
    EXPECT_EQ(store.records(), sample_delta().size());
  }  // no checkpoint: recovery must replay the whole WAL

  EngineStore reopened = EngineStore::open(dir.path(), options);
  EXPECT_EQ(reopened.recovery().snapshot_records, 0u);
  EXPECT_EQ(reopened.recovery().replayed_records, sample_delta().size());
  EXPECT_EQ(reopened.recovery().total_records, sample_delta().size());
  EXPECT_FALSE(reopened.recovery().used_fallback_snapshot);

  core::AuditEngine reference(base, options);
  reference.apply(sample_delta());
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));
}

TEST(EngineStore, CheckpointCollapsesTheLog) {
  ScopedTempDir dir("store");
  const core::RbacDataset base = figure1_dataset();

  EngineStore store = EngineStore::create(dir.path(), base, {});
  (void)store.engine().reaudit();
  store.apply(sample_delta());
  const fs::path snap = store.checkpoint();
  EXPECT_TRUE(fs::exists(snap));

  EngineStore reopened = EngineStore::open(dir.path(), {});
  EXPECT_EQ(reopened.recovery().snapshot_records, sample_delta().size());
  EXPECT_EQ(reopened.recovery().replayed_records, 0u) << "checkpoint made replay unnecessary";

  core::AuditEngine reference(base, {});
  reference.apply(sample_delta());
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));
}

TEST(EngineStore, RetentionKeepsTwoSnapshotsAndTheirWal) {
  ScopedTempDir dir("store");
  EngineStore store = EngineStore::create(dir.path(), figure1_dataset(), {});
  for (int round = 0; round < 5; ++round) {
    core::RbacDelta delta;
    delta.add_user("extra-" + std::to_string(round));
    delta.assign_user("R01", "extra-" + std::to_string(round));
    store.apply(delta);
    (void)store.checkpoint();
  }
  const std::vector<fs::path> snaps = list_snapshots(dir.path());
  ASSERT_EQ(snaps.size(), 2u);
  // Every surviving segment must be >= the oldest kept snapshot's position.
  const std::uint64_t oldest = *snapshot_records(snaps.front());
  for (const fs::path& seg : list_wal_segments(dir.path()))
    EXPECT_GE(*wal_segment_start(seg), oldest);
  // And the older snapshot must still be able to recover (fallback path).
  fs::remove(snaps.back());
  EngineStore reopened = EngineStore::open(dir.path(), {});
  EXPECT_EQ(reopened.recovery().snapshot_records, oldest);
  EXPECT_GT(reopened.recovery().replayed_records, 0u);
}

TEST(EngineStore, CorruptNewestSnapshotFallsBackAndMatches) {
  ScopedTempDir dir("store");
  const core::RbacDataset base = figure1_dataset();
  core::RbacDelta all;

  EngineStore store = EngineStore::create(dir.path(), base, {});
  for (int round = 0; round < 2; ++round) {
    core::RbacDelta delta;
    delta.add_role("X" + std::to_string(round));
    delta.assign_user("X" + std::to_string(round), "U01");
    all.mutations.insert(all.mutations.end(), delta.mutations.begin(), delta.mutations.end());
    store.apply(delta);
    (void)store.checkpoint();
  }
  const std::vector<fs::path> snaps = list_snapshots(dir.path());
  ASSERT_EQ(snaps.size(), 2u);
  // Corrupt the newest snapshot in place (truncate it mid-body).
  fs::resize_file(snaps.back(), fs::file_size(snaps.back()) / 2);

  EngineStore reopened = EngineStore::open(dir.path(), {});
  EXPECT_TRUE(reopened.recovery().used_fallback_snapshot);
  EXPECT_EQ(reopened.recovery().total_records, all.size());

  core::AuditEngine reference(base, {});
  reference.apply(all);
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));
}

TEST(EngineStore, CrashDuringCheckpointLeavesStoreReadable) {
  ScopedTempDir dir("store");
  EngineStore store = EngineStore::create(dir.path(), figure1_dataset(), {});
  store.apply(sample_delta());
  // Simulate a crash mid-checkpoint: the snapshot bytes exist only as .tmp.
  std::ofstream(dir.file(snapshot_name(sample_delta().size()) + ".tmp"), std::ios::binary)
      << "half-written snapshot";

  EngineStore reopened = EngineStore::open(dir.path(), {});
  EXPECT_EQ(reopened.recovery().snapshot_records, 0u);
  EXPECT_EQ(reopened.recovery().replayed_records, sample_delta().size());
}

TEST(EngineStore, OptionChangeDropsCachesButKeepsFindingsRight) {
  ScopedTempDir dir("store");
  const core::RbacDataset base = figure1_dataset();
  core::AuditOptions original;
  original.similarity_threshold = 1;
  {
    EngineStore store = EngineStore::create(dir.path(), base, original);
    (void)store.engine().reaudit();
    store.apply(sample_delta());
    (void)store.checkpoint();
  }
  core::AuditOptions changed = original;
  changed.similarity_threshold = 3;  // different question: caches are stale
  EngineStore reopened = EngineStore::open(dir.path(), changed);
  EXPECT_TRUE(reopened.recovery().caches_dropped);

  core::AuditEngine reference(base, changed);
  reference.apply(sample_delta());
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));
}

// open() restores the cached pair verdicts, so after a 1% WAL tail the first
// reaudit re-verifies strictly fewer pairs than a cold replay, with the same
// findings, version and digest. Fig. 3 at 600 roles, every cache-carrying
// method (approx-hnsw rebuilds its graph by design).
TEST(EngineStore, RecoveryReverifiesFewerPairsThanColdReplay) {
  const core::RbacDataset dataset = fig3_dataset(600);
  const std::size_t edges = dataset.ruam().nnz() + dataset.rpam().nnz();
  const std::vector<core::Mutation> trace = build_trace(dataset, edges / 100, 0x5707E + 600);
  StoreOptions store_options;
  store_options.fsync = FsyncPolicy::kNone;
  for (core::Method method :
       {core::Method::kRoleDiet, core::Method::kExactDbscan, core::Method::kApproxMinhash}) {
    core::AuditOptions options;
    options.method = method;
    ScopedTempDir dir("store_recovery_work");
    {
      EngineStore store = EngineStore::create(dir.path(), dataset, options, store_options);
      (void)store.engine().reaudit();
      (void)store.checkpoint();
      for (const core::Mutation& m : trace) {
        core::RbacDelta one;
        one.mutations.push_back(m);
        store.apply(one);
      }
    }  // crash after the tail: no second checkpoint

    EngineStore recovered = EngineStore::open(dir.path(), options, store_options);
    ASSERT_EQ(recovered.recovery().replayed_records, trace.size());
    const core::AuditReport warm = recovered.engine().reaudit();

    core::AuditEngine cold(dataset, options);
    core::RbacDelta all;
    all.mutations = trace;
    cold.apply(all);
    const core::AuditReport batch = cold.reaudit();

    const std::string where(core::to_string(method));
    EXPECT_EQ(findings_text(warm), findings_text(batch)) << where;
    EXPECT_LT(similar_pairs(warm), similar_pairs(batch)) << where;
  }
}

TEST(EngineStore, ReportCarriesStoreProvenance) {
  ScopedTempDir dir("store");
  EngineStore store = EngineStore::create(dir.path(), figure1_dataset(), {});
  store.apply(sample_delta());
  const core::AuditReport report = store.engine().reaudit();
  EXPECT_EQ(report.engine_version, store.engine().version());
  EXPECT_EQ(report.dataset_digest, core::dataset_content_digest(store.engine().state()));
  EXPECT_NE(report.to_text().find("dataset digest"), std::string::npos);
}

// The digest must not depend on which representation holds the state.
TEST(EngineStore, DigestAgreesAcrossRepresentations) {
  const core::RbacDataset dataset = figure1_dataset();
  core::AuditEngine engine(dataset, {});
  EXPECT_EQ(core::dataset_content_digest(dataset), core::dataset_content_digest(engine.state()));
  engine.apply(sample_delta());
  EXPECT_EQ(core::dataset_content_digest(engine.snapshot()),
            core::dataset_content_digest(engine.state()));
  EXPECT_NE(core::dataset_content_digest(dataset), core::dataset_content_digest(engine.state()));
}

// ---- hostile names end to end ---------------------------------------------

/// Names that stress every quoting layer the store stacks: CSV journal
/// payloads inside CRC-framed WAL records, and length-prefixed bytes in the
/// snapshot's interning tables.
const std::vector<std::string>& hostile_names() {
  static const std::vector<std::string> names{
      "plain",
      "comma,inside",
      "quote\"inside",
      "\"fully quoted\"",
      "cr\rlf\nboth\r\n",
      "trailing space ",
      " leading space",
      "unicode: naïve café 役割 🔐",
      "semi;colon",
      "tab\tinside",
  };
  return names;
}

TEST(EngineStore, HostileNamesSurviveJournalWalSnapshotRecover) {
  ScopedTempDir dir("store");
  core::RbacDataset base;
  base.add_user("seed-user");
  base.add_role("seed-role");
  base.add_permission("seed-perm");

  // The trace exercises every mutation kind with every hostile name.
  core::RbacDelta before_checkpoint;
  core::RbacDelta after_checkpoint;
  for (std::size_t i = 0; i < hostile_names().size(); ++i) {
    const std::string& name = hostile_names()[i];
    const std::string role = "role-" + name;
    before_checkpoint.add_user(name).add_role(role).assign_user(role, name);
    after_checkpoint.grant_permission(role, "perm-" + name);
    if (i % 2 == 0) after_checkpoint.revoke_user(role, name);
  }

  // The delta must survive the journal text format itself (the WAL frames
  // exactly these payloads), not just in-memory application.
  for (const core::Mutation& m : before_checkpoint.mutations)
    EXPECT_EQ(io::parse_journal_record(io::format_journal_record(m)), m);

  {
    EngineStore store = EngineStore::create(dir.path(), base, {});
    store.apply(before_checkpoint);
    (void)store.checkpoint();  // hostile names through the snapshot path
    store.apply(after_checkpoint);  // ... and through WAL replay
  }

  EngineStore reopened = EngineStore::open(dir.path(), {});
  EXPECT_GT(reopened.recovery().replayed_records, 0u);
  core::AuditEngine reference(base, {});
  reference.apply(before_checkpoint);
  reference.apply(after_checkpoint);
  EXPECT_EQ(core::dataset_content_digest(reopened.engine().state()),
            core::dataset_content_digest(reference.state()));
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));

  // Byte-identical dataset round-trip, name by name.
  const core::RbacDataset recovered = reopened.engine().snapshot();
  const core::RbacDataset expected = reference.snapshot();
  ASSERT_EQ(recovered.num_users(), expected.num_users());
  for (core::Id u = 0; u < static_cast<core::Id>(expected.num_users()); ++u)
    EXPECT_EQ(recovered.user_name(u), expected.user_name(u));
  ASSERT_EQ(recovered.num_roles(), expected.num_roles());
  for (core::Id r = 0; r < static_cast<core::Id>(expected.num_roles()); ++r)
    EXPECT_EQ(recovered.role_name(r), expected.role_name(r));
}

}  // namespace
}  // namespace rolediet::store
