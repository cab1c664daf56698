// Durable sharded store suite: churn-replay recovery, mid-stream
// checkpoints, and crash cuts across the S+1 WAL streams.
//
// The recovery contract mirrors EngineStore's, batch-atomically: opening a
// sharded store yields an engine byte-identical (findings, version, digest)
// to a from-scratch engine that applied the committed batch prefix — where
// "committed" means the batch's coordinator commit marker AND every shard
// record it claims survived. Truncating any stream's tail can only roll the
// store back to an earlier batch boundary, never to a torn mid-batch state.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/framework.hpp"
#include "core/sharded_engine.hpp"
#include "gen/churn.hpp"
#include "store/sharded_store.hpp"
#include "test_helpers.hpp"

namespace rolediet {
namespace {

namespace fs = std::filesystem;

using rolediet::testing::ScopedTempDir;
using store::ShardedEngineStore;
using store::StoreOptions;

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

gen::ChurnConfig compact_config(std::uint64_t seed) {
  gen::ChurnConfig config;
  config.seed = seed;
  config.initial_employees = 60;
  config.years = 1;
  config.days_per_year = 90;
  config.daily_hire_rate = 0.004;
  config.daily_attrition_rate = 0.003;
  config.daily_transfer_rate = 0.004;
  config.daily_sprawl_rate = 0.01;
  config.reorg_burst_days = 6;
  config.reorg_intensity = 0.05;
  config.onboarding_wave_fraction = 0.05;
  config.layoff_fraction = 0.1;
  return config;
}

core::AuditOptions default_options() {
  core::AuditOptions options;
  options.method = core::Method::kRoleDiet;
  options.similarity_threshold = 1;
  return options;
}

/// Churn stream day-by-day through a 3-shard store with checkpoints
/// mid-stream; at every boundary a copy of the directory is recovered and
/// compared against a from-scratch unsharded engine that applied the same
/// history — which pins recovery correctness AND the sharded/unsharded
/// findings contract in one assertion.
TEST(ShardedStoreChurn, RecoveryMatchesReplayAtEveryCheckpointBoundary) {
  const core::AuditOptions options = default_options();
  StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kCheckpointDays = 30;

  ScopedTempDir root("shardedstore");
  const fs::path store_dir = root.file("store");
  ShardedEngineStore durable = ShardedEngineStore::create(store_dir, core::RbacDataset{},
                                                          kShards, options, store_options);

  gen::ChurnSimulator sim(compact_config(/*seed=*/17));
  core::RbacDelta history;
  std::size_t boundaries = 0;
  while (!sim.done()) {
    const std::size_t day = sim.day();
    const core::RbacDelta delta = sim.next_day();
    history.mutations.insert(history.mutations.end(), delta.mutations.begin(),
                             delta.mutations.end());
    if (!delta.empty()) durable.apply(delta);

    const bool boundary = day % kCheckpointDays == 0 || sim.done();
    if (!boundary) continue;
    SCOPED_TRACE("day " + std::to_string(day) + ", " + std::to_string(history.size()) +
                 " mutations");

    const fs::path copy = root.file("recover-" + std::to_string(day));
    fs::copy(store_dir, copy, fs::copy_options::recursive);
    ShardedEngineStore recovered = ShardedEngineStore::open(copy, options, store_options);
    EXPECT_EQ(recovered.records(), durable.records());
    EXPECT_EQ(recovered.num_shards(), kShards);

    core::AuditEngine from_scratch(core::RbacDataset{}, options);
    from_scratch.apply(history);
    EXPECT_EQ(findings_text(recovered.engine().reaudit()),
              findings_text(from_scratch.reaudit()));
    fs::remove_all(copy);

    // Mid-stream checkpoint: the next boundary recovers bodies + WAL tail.
    (void)durable.checkpoint();
    ++boundaries;
  }
  EXPECT_GE(boundaries, 3u);
  EXPECT_GT(durable.checkpoint_id(), 2u);
}

/// Applies `batches[0..n)` to a fresh unsharded engine for prefix reports.
std::string prefix_findings(const std::vector<core::RbacDelta>& batches, std::size_t n,
                            const core::AuditOptions& options) {
  core::AuditEngine engine(core::RbacDataset{}, options);
  for (std::size_t i = 0; i < n; ++i) engine.apply(batches[i]);
  return findings_text(engine.reaudit());
}

std::vector<core::RbacDelta> small_batches() {
  std::vector<core::RbacDelta> batches;
  gen::ChurnSimulator sim(compact_config(/*seed=*/5));
  while (!sim.done() && batches.size() < 12) {
    core::RbacDelta delta = sim.next_day();
    if (!delta.empty()) batches.push_back(std::move(delta));
  }
  return batches;
}

/// The last WAL segment of one stream, by starting record index.
fs::path last_segment(const fs::path& stream_dir) {
  const std::vector<fs::path> segments = store::list_wal_segments(stream_dir);
  EXPECT_FALSE(segments.empty()) << stream_dir;
  return segments.back();
}

/// Truncating the tail of any stream — coordinator or shard — must roll the
/// store back to a committed batch boundary: the recovered findings equal a
/// from-scratch engine that applied the first (checkpointed + replayed
/// commits) batches, at every byte-granularity cut depth.
TEST(ShardedStoreFaults, TailCutsRollBackToBatchBoundaries) {
  const core::AuditOptions options = default_options();
  StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;
  constexpr std::size_t kShards = 3;
  const std::vector<core::RbacDelta> batches = small_batches();
  ASSERT_GE(batches.size(), 8u);
  const std::size_t checkpoint_after = 4;  // batches baked into the bodies

  ScopedTempDir root("shardfault");
  const fs::path store_dir = root.file("store");
  {
    ShardedEngineStore durable = ShardedEngineStore::create(store_dir, core::RbacDataset{},
                                                            kShards, options, store_options);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      durable.apply(batches[i]);
      if (i + 1 == checkpoint_after) (void)durable.checkpoint();
    }
  }

  const std::vector<fs::path> streams = {store_dir / "coord", store_dir / "shard-000",
                                         store_dir / "shard-001", store_dir / "shard-002"};
  for (const fs::path& stream : streams) {
    const fs::path segment = last_segment(stream);
    const std::uintmax_t size = fs::file_size(segment);
    // Cut progressively deeper tails off this stream's last segment.
    for (std::uintmax_t cut = 7; cut < size; cut += 53) {
      SCOPED_TRACE(stream.filename().string() + " cut " + std::to_string(cut) + " of " +
                   std::to_string(size));
      const fs::path copy = root.file("cut");
      fs::copy(store_dir, copy, fs::copy_options::recursive);
      fs::resize_file(copy / stream.filename() / segment.filename(), size - cut);

      ShardedEngineStore recovered = ShardedEngineStore::open(copy, options, store_options);
      const std::size_t surviving =
          checkpoint_after + recovered.recovery().commits_applied;
      ASSERT_LE(surviving, batches.size());
      EXPECT_EQ(findings_text(recovered.engine().reaudit()),
                prefix_findings(batches, surviving, options));

      // The reopened store accepts new batches and survives another open.
      recovered.apply(batches.back());
      EXPECT_NO_THROW((void)ShardedEngineStore::open(copy, options, store_options));
      fs::remove_all(copy);
    }
  }
}

TEST(ShardedStoreLayout, CreateOpenValidationAndDetection) {
  const core::AuditOptions options = default_options();
  ScopedTempDir root("shardlayout");
  const fs::path dir = root.file("store");

  EXPECT_FALSE(ShardedEngineStore::is_sharded_store(dir));
  EXPECT_THROW((void)ShardedEngineStore::open(dir, options), store::StoreError);
  EXPECT_THROW(
      (void)ShardedEngineStore::create(dir, core::RbacDataset{}, 0, options),
      store::StoreError);

  {
    ShardedEngineStore created =
        ShardedEngineStore::create(dir, testing::figure1_dataset(), 2, options);
    EXPECT_EQ(created.num_shards(), 2u);
    EXPECT_EQ(created.checkpoint_id(), 0u);
  }
  EXPECT_TRUE(ShardedEngineStore::is_sharded_store(dir));
  EXPECT_TRUE(fs::is_regular_file(dir / "MANIFEST"));
  EXPECT_TRUE(fs::is_directory(dir / "coord"));
  EXPECT_TRUE(fs::is_directory(dir / "shard-001"));

  // A second create on a live store must refuse.
  EXPECT_THROW(
      (void)ShardedEngineStore::create(dir, core::RbacDataset{}, 2, options),
      store::StoreError);

  // A flipped byte in a shard body fails the open with a checksum error.
  {
    const fs::path copy = root.file("corrupt");
    fs::copy(dir, copy, fs::copy_options::recursive);
    fs::path body;
    for (const auto& entry : fs::directory_iterator(copy / "shard-000")) {
      if (entry.path().extension() == ".rdbody") body = entry.path();
    }
    ASSERT_FALSE(body.empty());
    std::fstream f(body, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(60);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(60);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
    f.close();
    EXPECT_THROW((void)ShardedEngineStore::open(copy, options), store::StoreError);
  }
}

/// Little-endian `bytes`-wide encoding of `v`, appended to `out`.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// `body` followed by its FNV-1a digest, the framing both files end with.
std::string with_digest(std::string body) {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const char c : body) digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  put_le(body, digest, 8);
  return body;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Pins the MANIFEST and names-file bytes against files assembled by hand:
/// magic, little-endian fields, u64-prefixed names, and a trailing digest
/// of every preceding byte (magic included).
TEST(ShardedStoreLayout, ManifestAndNamesBytesMatchTheFormat) {
  core::RbacDataset dataset;
  dataset.add_user("ann");
  dataset.add_role("r0");
  dataset.add_role("r1");
  dataset.add_permission("p");
  dataset.assign_user(0, 0);
  dataset.grant_permission(1, 0);
  ScopedTempDir root("shardbytes");
  const fs::path dir = root.file("store");
  (void)ShardedEngineStore::create(dir, dataset, 2, default_options());

  std::string manifest("RDMAN1\0\0", 8);
  put_le(manifest, 1, 4);  // format version
  put_le(manifest, 2, 4);  // shards
  // initial roles, checkpoint id, engine version, audits, users, roles,
  // permissions, coordinator records, then each shard's records.
  for (const std::uint64_t field : {2, 0, 0, 0, 1, 2, 1, 0, 0, 0}) put_le(manifest, field, 8);
  EXPECT_EQ(slurp(dir / "MANIFEST"), with_digest(manifest));

  std::string names("RDNAME1\0", 8);
  put_le(names, 1, 4);  // format version
  put_le(names, 0, 4);  // reserved
  for (const std::uint64_t count : {1, 2, 1}) put_le(names, count, 8);
  for (const std::string name : {"ann", "r0", "r1", "p"}) {
    put_le(names, name.size(), 8);
    names += name;
  }
  EXPECT_EQ(slurp(dir / "names-00000000000000000000.rdnames"), with_digest(names));
}

/// A digest-valid MANIFEST or names file can still carry hostile counts; the
/// open must fail with StoreError instead of sizing an allocation by them.
TEST(ShardedStoreLayout, HostileCountsInDigestValidFilesFailTheOpen) {
  ScopedTempDir root("shardhostile");
  const fs::path dir = root.file("store");
  (void)ShardedEngineStore::create(dir, testing::figure1_dataset(), 2, default_options());
  const auto overwrite = [](const fs::path& path, const std::string& body) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << with_digest(body);
  };

  const fs::path names_file = dir / "names-00000000000000000000.rdnames";
  const std::string names_before = slurp(names_file);
  std::string names("RDNAME1\0", 8);
  put_le(names, 1, 4);  // format version
  put_le(names, 0, 4);  // reserved
  for (const std::uint64_t count : {std::uint64_t{1} << 60, std::uint64_t{0}, std::uint64_t{0}})
    put_le(names, count, 8);
  overwrite(names_file, names);
  EXPECT_THROW((void)ShardedEngineStore::open(dir, default_options()), store::StoreError);
  std::ofstream(names_file, std::ios::binary | std::ios::trunc) << names_before;

  std::string manifest("RDMAN1\0\0", 8);
  put_le(manifest, 1, 4);           // format version
  put_le(manifest, 0xFFFFFFFF, 4);  // shards
  for (int field = 0; field < 8; ++field) put_le(manifest, 0, 8);
  overwrite(dir / "MANIFEST", manifest);
  EXPECT_THROW((void)ShardedEngineStore::open(dir, default_options()), store::StoreError);
}

/// A digest-valid body whose role count K is chosen so that the expected
/// size wraps around u64 to the file's real size: the open must reject the
/// counts before the row-pointer scan walks K entries past the mapping.
TEST(ShardedStoreLayout, WrappingBodyCountsInDigestValidFileFailTheOpen) {
  ScopedTempDir root("shardwrap");
  const fs::path dir = root.file("store");
  (void)ShardedEngineStore::create(dir, testing::figure1_dataset(), 1, default_options());
  fs::path body;
  for (const auto& entry : fs::directory_iterator(dir / "shard-000")) {
    if (entry.path().extension() == ".rdbody") body = entry.path();
  }
  ASSERT_FALSE(body.empty());
  const std::string original = slurp(body);

  // Header: magic, version, axes, then K, users cols, users nnz, perms cols,
  // perms nnz. With K = 2^62 + 200, 16(K+1) + 4K wraps to 3216 + 800 bytes,
  // so 56 + 4016 + 4 * (nnz = 4) + the digest is exactly 4096 bytes.
  const std::uint64_t k = (std::uint64_t{1} << 62) + 200;
  std::string bytes = original.substr(0, 16);
  put_le(bytes, k, 8);
  for (const std::uint64_t field : {std::uint64_t{5}, std::uint64_t{4}, std::uint64_t{4},
                                    std::uint64_t{0}}) {
    put_le(bytes, field, 8);
  }
  bytes.resize(4096 - 8, '\0');
  std::ofstream(body, std::ios::binary | std::ios::trunc) << with_digest(bytes);
  ASSERT_EQ(fs::file_size(body), 4096u);
  try {
    (void)ShardedEngineStore::open(dir, default_options());
    ADD_FAILURE() << "expected StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos) << e.what();
  }
}

/// A digest-valid body can still hold a row that is not a sorted set of
/// known ids; the open must fail with StoreError, not hand the row to WAL
/// replay (which binary-searches it) or to the first reaudit.
TEST(ShardedStoreLayout, DigestValidBodyWithBadRowFailsTheOpen) {
  core::RbacDataset dataset;
  dataset.add_user("u0");
  dataset.add_user("u1");
  dataset.add_role("r0");
  dataset.add_permission("p0");
  dataset.assign_user(0, 0);
  dataset.assign_user(0, 1);
  dataset.grant_permission(0, 0);
  ScopedTempDir root("shardbadrow");
  const fs::path dir = root.file("store");
  (void)ShardedEngineStore::create(dir, dataset, 1, default_options());
  EXPECT_NO_THROW((void)ShardedEngineStore::open(dir, default_options()));

  fs::path body;
  for (const auto& entry : fs::directory_iterator(dir / "shard-000")) {
    if (entry.path().extension() == ".rdbody") body = entry.path();
  }
  ASSERT_FALSE(body.empty());
  const std::string original = slurp(body);
  // Header (56 bytes), two row_ptr arrays of K+1 u64, K role ids, then the
  // users cols_idx: role 0's row {0, 1} is its first two u32s. K = 1.
  constexpr std::size_t kRoles = 1;
  constexpr std::size_t kUsersCols = 56 + 16 * (kRoles + 1) + 4 * kRoles;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> bad_rows = {
      {1, 0},  // swapped
      {1, 1},  // repeated id
      {0, 2},  // id >= the users count
  };
  for (const auto& [first, second] : bad_rows) {
    SCOPED_TRACE("row {" + std::to_string(first) + ", " + std::to_string(second) + "}");
    std::string bytes = original.substr(0, original.size() - 8);
    std::string row;
    put_le(row, first, 4);
    put_le(row, second, 4);
    bytes.replace(kUsersCols, row.size(), row);
    std::ofstream(body, std::ios::binary | std::ios::trunc) << with_digest(bytes);
    EXPECT_THROW((void)ShardedEngineStore::open(dir, default_options()), store::StoreError);
  }
}

TEST(ShardedStoreCheckpoint, PrunesSupersededGenerationsAndResumesAppends) {
  const core::AuditOptions options = default_options();
  ScopedTempDir root("shardckpt");
  const fs::path dir = root.file("store");
  const std::vector<core::RbacDelta> batches = small_batches();
  ASSERT_GE(batches.size(), 4u);

  {
    ShardedEngineStore durable =
        ShardedEngineStore::create(dir, testing::figure1_dataset(), 2, options);
    durable.apply(batches[0]);
    EXPECT_EQ(durable.checkpoint(), 1u);
    durable.apply(batches[1]);
    EXPECT_EQ(durable.checkpoint(), 2u);
    durable.apply(batches[2]);
  }

  // Only generation 2 survives pruning, in every lineage.
  std::size_t names_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rdnames") ++names_files;
  }
  EXPECT_EQ(names_files, 1u);
  for (const std::string shard : {"shard-000", "shard-001"}) {
    std::size_t bodies = 0;
    for (const auto& entry : fs::directory_iterator(dir / shard)) {
      if (entry.path().extension() == ".rdbody") ++bodies;
    }
    EXPECT_EQ(bodies, 1u) << shard;
  }

  // Reopen: bodies + the unpruned tail batch; rows served through the mmap.
  ShardedEngineStore reopened = ShardedEngineStore::open(dir, options);
  EXPECT_EQ(reopened.checkpoint_id(), 2u);
  EXPECT_EQ(reopened.recovery().commits_applied, 1u);
  core::AuditEngine reference(testing::figure1_dataset(), options);
  for (std::size_t i = 0; i < 3; ++i) reference.apply(batches[i]);
  EXPECT_EQ(findings_text(reopened.engine().reaudit()), findings_text(reference.reaudit()));

  // Appends resume on the surviving segments and survive one more cycle.
  reopened.apply(batches[3]);
  EXPECT_EQ(reopened.checkpoint(), 3u);
}

}  // namespace
}  // namespace rolediet
