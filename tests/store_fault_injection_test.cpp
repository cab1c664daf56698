// Byte-granular fault injection for the durable engine store.
//
// Builds a store under FsyncPolicy::kNone (one WAL record per apply()),
// drives a mutation trace with a mid-trace reaudit + checkpoint (so the
// snapshot carries pair caches and a dirty frontier), then truncates a copy
// of the store at EVERY record boundary of the tail segment, plus mid-record
// and mid-header offsets. Each truncated copy must recover to an engine
// whose reaudit() findings are byte-identical to a from-scratch engine on
// the surviving committed prefix — across every method, similarity mode,
// row backend, and thread count.
//
// kApproxHnsw's live incremental graph is the engine's documented
// exception; recovery sidesteps it by rebuild-marking the artifacts and
// re-running the batch pass, so byte-identity holds here too.
//
// The second suite fails I/O *during* a checkpoint through the store/file_io
// fault hook: each write, fsync, directory fsync and rename of one
// checkpoint() in turn, on both layouts. A failed checkpoint must throw
// StoreError and leave a directory that reopens to the pre-checkpoint state.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/framework.hpp"
#include "store/engine_store.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "test_helpers.hpp"

namespace rolediet::store {
namespace {

namespace fs = std::filesystem;

using rolediet::testing::ScopedTempDir;

/// Findings rendering with only non-deterministic fields (wall-clock
/// timings, per-thread work-split counters) zeroed. Engine version and
/// dataset digest stay: recovery must land on the same logical state, so
/// both must match the reference exactly.
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

/// Base dataset: the Fig. 1 example plus extra roles so similar-pair caches
/// have something to cache at threshold 2 / Jaccard 0.3.
core::RbacDataset base_dataset() {
  core::RbacDataset d = rolediet::testing::figure1_dataset();
  const core::Id u02 = 1, u03 = 2, u04 = 3;
  const core::Id p04 = 3, p05 = 4, p06 = 5;
  const core::Id r06 = d.add_role("R06");
  const core::Id r07 = d.add_role("R07");
  d.assign_user(r06, u02);  // near-duplicate of R02's user set {U02, U03}
  d.assign_user(r06, u03);
  d.assign_user(r06, u04);
  d.grant_permission(r07, p04);  // near-duplicate of R04's perms {P04, P05}
  d.grant_permission(r07, p05);
  d.grant_permission(r07, p06);
  return d;
}

/// The single-mutation trace. Mixed kinds so replay exercises every code
/// path; several no-ops (re-adds, revokes of absent edges) so record count
/// and engine version deliberately diverge.
std::vector<core::Mutation> build_trace() {
  core::RbacDelta d;
  d.add_user("U05")
      .add_role("R08")
      .assign_user("R08", "U05")
      .assign_user("R08", "U01")
      .grant_permission("R08", "P02")
      .add_user("U05")  // no-op: already interned
      .revoke_user("R02", "U03")
      .grant_permission("R02", "P06")
      .assign_user("R06", "U05")
      .revoke_user("R03", "U01")  // no-op: no such edge
      .grant_permission("R03", "P01")
      .revoke_permission("R05", "P04")
      .add_permission("P07")
      .grant_permission("R08", "P07")
      .assign_user("R07", "U02")
      .revoke_user("R06", "U04")
      .grant_permission("R06", "P03")
      .add_role("R09")
      .assign_user("R09", "U02")
      .assign_user("R09", "U03")
      .grant_permission("R09", "P05")
      .revoke_permission("R09", "P01")  // no-op: never granted
      .revoke_user("R08", "U01")
      .grant_permission("R07", "P02");
  return std::move(d.mutations);
}

/// Record index at which the mid-trace reaudit + checkpoint happens. The
/// post-checkpoint WAL tail (the truncation target) holds the rest.
constexpr std::size_t kCheckpointAt = 10;

struct FaultCase {
  core::Method method;
  core::SimilarityMode mode;
  linalg::RowBackend backend;
  std::size_t threads;
};

std::string case_name(const ::testing::TestParamInfo<FaultCase>& info) {
  const FaultCase& c = info.param;
  std::string name;
  switch (c.method) {
    case core::Method::kExactDbscan: name = "Exact"; break;
    case core::Method::kApproxHnsw: name = "Hnsw"; break;
    case core::Method::kApproxMinhash: name = "Minhash"; break;
    case core::Method::kRoleDiet: name = "RoleDiet"; break;
  }
  name += c.mode == core::SimilarityMode::kHamming ? "Hamming" : "Jaccard";
  name += c.backend == linalg::RowBackend::kDense ? "Dense" : "Sparse";
  name += "T" + std::to_string(c.threads);
  return name;
}

std::vector<FaultCase> all_cases() {
  std::vector<FaultCase> cases;
  for (core::Method method : {core::Method::kExactDbscan, core::Method::kApproxHnsw,
                              core::Method::kApproxMinhash, core::Method::kRoleDiet}) {
    for (core::SimilarityMode mode :
         {core::SimilarityMode::kHamming, core::SimilarityMode::kJaccard}) {
      for (linalg::RowBackend backend : {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          cases.push_back({method, mode, backend, threads});
        }
      }
    }
  }
  return cases;
}

core::AuditOptions options_for(const FaultCase& c) {
  core::AuditOptions options;
  options.method = c.method;
  options.detect_similar = true;
  options.similarity_mode = c.mode;
  options.similarity_threshold = 2;
  options.jaccard_dissimilarity = 0.3;
  options.threads = c.threads;
  options.backend = c.backend;
  return options;
}

/// A record boundary in the tail WAL segment: byte offset just past the
/// record, and the global record count committed at that offset.
struct Boundary {
  std::uint64_t offset = 0;
  std::uint64_t record_end = 0;
};

class StoreFaultInjectionTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(StoreFaultInjectionTest, EveryTruncationRecoversTheCommittedPrefix) {
  const core::AuditOptions options = options_for(GetParam());
  const core::RbacDataset base = base_dataset();
  const std::vector<core::Mutation> trace = build_trace();

  // ---- build the pristine store ------------------------------------------
  ScopedTempDir root("fault");
  const fs::path pristine = root.file("pristine");
  StoreOptions store_options;
  store_options.fsync = FsyncPolicy::kNone;  // speed; crashes are simulated
  {
    EngineStore store = EngineStore::create(pristine, base, options, store_options);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      core::RbacDelta one;
      one.mutations.push_back(trace[i]);
      store.apply(one);
      if (i + 1 == kCheckpointAt) {
        (void)store.engine().reaudit();  // populate the pair caches...
        (void)store.checkpoint();        // ...and bake them into the snapshot
      }
    }
  }

  // ---- enumerate tail-segment record boundaries --------------------------
  const std::vector<fs::path> segments = list_wal_segments(pristine);
  ASSERT_FALSE(segments.empty());
  const fs::path tail = segments.back();
  std::vector<Boundary> boundaries;
  {
    WalSegmentReader reader(tail);
    ASSERT_EQ(reader.start_record(), kCheckpointAt) << "checkpoint must have rotated the log";
    boundaries.push_back({reader.offset(), reader.start_record()});
    std::string payload;
    while (reader.next(payload)) boundaries.push_back({reader.offset(), reader.record_index()});
  }
  const std::uint64_t tail_size = fs::file_size(tail);
  ASSERT_EQ(boundaries.back().offset, tail_size) << "trace must end on a record boundary";
  ASSERT_GT(boundaries.size(), 2u) << "need several records in the tail segment";
  const std::uint64_t header_end = boundaries.front().offset;

  // Truncation points: every record boundary, one byte past each boundary
  // (torn frame header), each record's midpoint (torn payload), and two
  // points inside the segment header (torn header -> segment dropped).
  std::vector<std::uint64_t> cuts;
  cuts.push_back(0);
  cuts.push_back(header_end / 2);
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    cuts.push_back(boundaries[i].offset);
    if (boundaries[i].offset + 1 < tail_size) cuts.push_back(boundaries[i].offset + 1);
    if (i + 1 < boundaries.size())
      cuts.push_back((boundaries[i].offset + boundaries[i + 1].offset) / 2);
  }

  for (std::uint64_t cut : cuts) {
    SCOPED_TRACE("truncate tail segment to " + std::to_string(cut) + " bytes");

    // ---- wound a copy of the store ---------------------------------------
    const fs::path wounded = root.file("cut-" + std::to_string(cut));
    fs::copy(pristine, wounded, fs::copy_options::recursive);
    fs::resize_file(wounded / tail.filename(), cut);

    // The committed prefix this cut preserves: a cut inside the segment
    // header drops the whole tail segment; otherwise the last boundary at
    // or before the cut survives.
    std::uint64_t committed = boundaries.front().record_end;
    for (const Boundary& b : boundaries)
      if (b.offset <= cut) committed = b.record_end;

    // ---- recover and compare against a from-scratch engine ---------------
    EngineStore recovered = EngineStore::open(wounded, options, store_options);
    EXPECT_EQ(recovered.recovery().total_records, committed);
    EXPECT_EQ(recovered.recovery().dropped_torn_segment, cut < header_end);

    // The reference is a fresh engine over the committed prefix; its first
    // reaudit() is the deterministic batch pass. The recovered engine's
    // delta pass must match it by the engine's byte-identity contract — and
    // for kApproxHnsw (whose live graph is the contract's one exception)
    // recovery rebuild-marks the artifacts, so it runs the same batch pass.
    core::AuditEngine reference(base, options);
    core::RbacDelta prefix;
    prefix.mutations.assign(trace.begin(),
                            trace.begin() + static_cast<std::ptrdiff_t>(committed));
    reference.apply(prefix);

    EXPECT_EQ(findings_text(recovered.engine().reaudit()), findings_text(reference.reaudit()));

    // The recovered store must also still be writable: append + checkpoint.
    core::RbacDelta more;
    more.add_user("post-crash-user").assign_user("R01", "post-crash-user");
    recovered.apply(more);
    EXPECT_EQ(recovered.records(), committed + more.size());
    (void)recovered.checkpoint();
    fs::remove_all(wounded);
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, StoreFaultInjectionTest, ::testing::ValuesIn(all_cases()),
                         case_name);

// ---- I/O that fails during a checkpoint -------------------------------------

/// A store in `dir` (flat for 0 shards) holding the whole trace: the first
/// half checkpointed, the rest in the WAL, the last batch published.
Store seeded_store(const fs::path& dir, std::size_t shards) {
  const std::vector<core::Mutation> trace = build_trace();
  const auto half = trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  Store store = Store::create(dir, base_dataset(), shards, {});
  core::RbacDelta batch;
  batch.mutations.assign(trace.begin(), half);
  store.apply(batch);
  (void)store.reaudit();
  (void)store.checkpoint();
  batch.mutations.assign(half, trace.end());
  store.apply(batch);
  (void)store.reaudit();
  return store;
}

struct Injection {
  IoCall kind;
  int error;
  bool checkpoint_fails;  ///< false: the seam absorbs the error
};

class CheckpointIoFaultTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CheckpointIoFaultTest, EveryFailedCallLeavesTheStoreRecoverable) {
  const std::size_t shards = GetParam();
  ScopedTempDir root("iofault");
  const Injection injections[] = {
      {IoCall::kWrite, EIO, true},        {IoCall::kWrite, ENOSPC, true},
      {IoCall::kWrite, EINTR, false},     {IoCall::kFileFsync, EIO, true},
      {IoCall::kDirFsync, EIO, true},     {IoCall::kDirFsync, EINVAL, false},
      {IoCall::kRename, EIO, true},
  };
  int case_id = 0;
  for (const Injection& injection : injections) {
    // How many calls of this kind one checkpoint makes.
    std::uint64_t calls = 0;
    {
      Store store = seeded_store(root.file("count-" + std::to_string(case_id)), shards);
      inject_fault(injection.kind, 0, 0);
      (void)store.checkpoint();
      calls = clear_fault();
    }
    ASSERT_GT(calls, 0u) << "kind " << static_cast<int>(injection.kind);

    for (std::uint64_t nth = 1; nth <= calls; ++nth) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(injection.kind)) + ", errno " +
                   std::to_string(injection.error) + ", call " + std::to_string(nth) + " of " +
                   std::to_string(calls));
      const fs::path dir = root.file("case-" + std::to_string(++case_id));
      std::string expected;
      {
        Store store = seeded_store(dir, shards);
        expected = findings_text(store.reaudit());
        inject_fault(injection.kind, nth, injection.error);
        if (injection.checkpoint_fails) {
          EXPECT_THROW((void)store.checkpoint(), StoreError);
        } else {
          EXPECT_NO_THROW((void)store.checkpoint());
        }
        (void)clear_fault();
      }  // a failed store is discarded, as after a crash
      Store reopened = Store::open(dir, {});
      EXPECT_EQ(reopened.shards(), shards);
      EXPECT_EQ(findings_text(reopened.reaudit()), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, CheckpointIoFaultTest, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return info.param == 0 ? std::string("Flat")
                                                  : "Sharded" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rolediet::store
