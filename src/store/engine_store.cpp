#include "store/engine_store.hpp"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

#include "io/csv.hpp"
#include "io/journal.hpp"

namespace rolediet::store {

namespace fs = std::filesystem;

/// Snapshots checkpoint() retains: the newest plus one fallback.
constexpr std::size_t kKeepSnapshots = 2;

EngineStore::EngineStore(fs::path dir, StoreOptions store_options)
    : dir_(std::move(dir)), wal_(dir_, store_options.fsync, kWalSegmentBytes) {}

EngineStore EngineStore::create(const fs::path& dir, const core::RbacDataset& dataset,
                                const core::AuditOptions& options, StoreOptions store_options) {
  create_store_dir(dir);

  EngineStore store(dir, store_options);
  store.engine_ = std::make_unique<core::AuditEngine>(dataset, options);
  store.recovery_.snapshot_path = SnapshotWriter(dir).write(capture_snapshot(*store.engine_, 0));
  store.wal_.start(0, std::nullopt, 0);
  return store;
}

EngineStore EngineStore::open(const fs::path& dir, const core::AuditOptions& options,
                              StoreOptions store_options) {
  if (!fs::is_directory(dir)) throw StoreError("store: no such directory " + dir.string());
  EngineStore store(dir, store_options);

  // 1. Newest snapshot that validates end to end.
  const std::vector<fs::path> snaps = list_snapshots(dir);
  if (snaps.empty()) throw StoreError("store: no snapshot in " + dir.string());
  std::optional<EngineSnapshot> snap;
  bool newest_failed = false;
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    try {
      snap = SnapshotReader(*it).read();
      store.recovery_.snapshot_path = *it;
      break;
    } catch (const std::exception&) {
      newest_failed = true;  // fall back to the previous snapshot
    }
  }
  if (!snap) throw StoreError("store: no readable snapshot in " + dir.string());
  store.recovery_.used_fallback_snapshot = newest_failed;
  store.recovery_.snapshot_records = snap->wal_records;
  const std::uint64_t n0 = snap->wal_records;

  // 2. Engine from the snapshot dataset + restored persistent state. A
  // different option fingerprint silently invalidates the cached verdicts
  // (they answer a different question) but keeps the dirty frontier.
  store.engine_ = std::make_unique<core::AuditEngine>(snap->dataset, options);
  core::EnginePersistentState state = std::move(snap->engine);
  if (!(OptionFingerprint::of(options) == snap->fingerprint)) {
    state.users.similar_valid = false;
    state.users.similar_pairs.clear();
    state.perms.similar_valid = false;
    state.perms.similar_pairs.clear();
    store.recovery_.caches_dropped = true;
  }
  try {
    store.engine_->restore_persistent_state(std::move(state));
  } catch (const std::invalid_argument& e) {
    throw StoreError("store: snapshot state does not fit its dataset: " + std::string(e.what()));
  }

  // 3. Replay WAL records >= n0 (recover_log repairs the log tail), freeing
  // each payload once parsed so the log and the batch are not both resident.
  RecoveredLog log = recover_log(dir, n0, store.recovery_);
  core::RbacDelta replay;
  replay.mutations.reserve(log.records.size());
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    try {
      replay.mutations.push_back(
          io::parse_journal_record(std::exchange(log.records[i].payload, {})));
    } catch (const io::CsvError& e) {
      // CRC-valid but unparseable payload: not a torn write, real damage.
      throw StoreError("store: corrupt WAL record " + std::to_string(n0 + i) + ": " +
                       std::string(e.what()));
    }
  }
  // Under FsyncPolicy::kNone the snapshot can be ahead of the surviving log;
  // the snapshot is authoritative (its records were applied by definition).
  const std::uint64_t total = std::max(n0, log.end);
  if (!replay.empty()) store.engine_->apply(replay);
  store.recovery_.replayed_records = replay.size();
  store.recovery_.total_records = total;

  // 4. Reopen for appending where the surviving log ends.
  store.wal_.start(total, log);
  return store;
}

void EngineStore::apply(const core::RbacDelta& delta) {
  wal_.append_batch(delta);
  engine_->apply(delta);
}

core::AuditReport EngineStore::reaudit() {
  engine_->set_publish_versions(true);
  // Snapshot the position first: the version about to be published reflects
  // exactly the records applied so far (single writer, nothing lands during
  // the reaudit itself).
  const std::uint64_t records = wal_.next_record();
  core::AuditReport report = engine_->reaudit();
  published_records_ = records;
  return report;
}

fs::path EngineStore::checkpoint() {
  // Make sure everything the snapshot will claim as "in the log" is durable
  // before the snapshot that supersedes older segments exists.
  wal_.sync();
  const std::shared_ptr<const core::EngineVersion> version = engine_->published();
  const std::uint64_t records = version ? published_records_ : wal_.next_record();
  const fs::path path = SnapshotWriter(dir_).write(
      version ? capture_snapshot(*version, engine_->options(), records)
              : capture_snapshot(*engine_, records));
  wal_.rotate();

  // Retention: keep the newest kKeepSnapshots snapshots and every WAL
  // segment the oldest kept one still needs for replay.
  const std::vector<fs::path> snaps = list_snapshots(dir_);
  const std::size_t drop = snaps.size() > kKeepSnapshots ? snaps.size() - kKeepSnapshots : 0;
  for (std::size_t i = 0; i < drop; ++i) {
    std::error_code ec;
    fs::remove(snaps[i], ec);
    if (ec)
      throw StoreError("store: cannot prune snapshot " + snaps[i].string() + ": " + ec.message());
  }
  wal_.prune_below(*snapshot_records(snaps[drop]));
  return path;
}

}  // namespace rolediet::store
