// Durable sharded audit engine: per-shard WAL streams + mmap'd bodies tied
// together by one atomic manifest.
//
// ShardedEngineStore is to core::ShardedEngine what EngineStore is to
// core::AuditEngine, with the layout the sharded engine needs: every shard
// owns its own WAL stream and snapshot (body) lineage, and a thin
// coordinator log carries what is global — name interning and batch commit
// markers. A store directory looks like
//
//   MANIFEST                    atomic checkpoint descriptor (see below)
//   names-<C>.rdnames           interned user/role/permission names at C
//   coord/wal-<S>.log           coordinator records (interns + commits)
//   shard-NNN/body-<C>.rdbody   shard NNN's rows at checkpoint C (store/body.hpp)
//   shard-NNN/wal-<S>.log       shard NNN's edge records since its body
//
// Record grammar (payloads inside the store/wal.hpp CRC frame):
//
//   coordinator   nu,<name>   np,<name>   nr,<name>    intern (global order)
//                 c,<n0>,...,<nS-1>                    commit marker: absolute
//                                                      per-shard record counts
//   shard         au,<role>,<user>    ru,<role>,<user>
//                 gp,<role>,<perm>    rp,<role>,<perm> id-based edge mutations
//
// apply() routes a batch's edge records to the owning shards' WALs first,
// then appends the batch's interns plus one commit marker to the coordinator
// log. A batch is committed iff its marker is durable *and* every shard
// record the marker's cuts claim survives; recovery walks the coordinator
// log marker by marker, replays each satisfiable batch (interns, then each
// shard's records up to the marker's cut), and truncates everything after
// the last satisfiable commit as an uncommitted tail. Torn tails and
// torn-header segments are repaired by the same walk EngineStore uses
// (store/wal.hpp's recover_log) — only at the tail of each log.
//
// checkpoint() freezes every shard's rows into a new body file, writes the
// names file, then atomically replaces MANIFEST (the commit point) before
// rotating and pruning all S+1 logs and deleting superseded bodies. The
// manifest records the WAL cut of every stream, so a crash anywhere in a
// checkpoint leaves either the old or the new checkpoint fully intact.
//
// Recovery maps the manifest's bodies for the duration of open(): the
// ShardedEngine restore constructor validates their rows (sorted, unique,
// within the entity counts) and copies them into the engine's state, so a
// body that passes its digest but holds a bad row fails the open instead of
// a later reaudit.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/sharded_engine.hpp"
#include "store/body.hpp"
#include "store/engine_store.hpp"  // StoreOptions
#include "store/wal.hpp"

namespace rolediet::store {

/// What open() had to do to bring a sharded store back.
struct ShardedRecoveryInfo : TailRepair {
  std::uint64_t checkpoint_id = 0;          ///< manifest generation restored from
  std::uint64_t manifest_coord_records = 0; ///< coordinator records baked into it
  std::uint64_t commits_applied = 0;   ///< commit markers replayed on top
  std::uint64_t replayed_interns = 0;  ///< intern records replayed
  std::uint64_t replayed_edges = 0;    ///< shard edge records replayed
  std::uint64_t discarded_records = 0; ///< uncommitted tail records dropped
};

class ShardedEngineStore {
 public:
  /// Initializes `dir` (created if missing; must not already hold a store of
  /// either layout) with checkpoint 0 of the dataset split into `shards` shards and empty
  /// WAL streams. Throws StoreError on an existing store or I/O failure.
  [[nodiscard]] static ShardedEngineStore create(const std::filesystem::path& dir,
                                                 const core::RbacDataset& dataset,
                                                 std::size_t shards,
                                                 const core::AuditOptions& options,
                                                 StoreOptions store_options = {});

  /// Recovers the engine from `dir` (see file comment) and reopens every WAL
  /// stream for appending. Throws StoreError on a missing/corrupt manifest,
  /// unreadable body, or log damage anywhere but the tails.
  [[nodiscard]] static ShardedEngineStore open(const std::filesystem::path& dir,
                                               const core::AuditOptions& options,
                                               StoreOptions store_options = {});

  /// True when `dir` holds a sharded store (a MANIFEST file) — how
  /// store::Store::open tells the two layouts apart.
  [[nodiscard]] static bool is_sharded_store(const std::filesystem::path& dir);

  ShardedEngineStore(ShardedEngineStore&&) = default;
  ShardedEngineStore& operator=(ShardedEngineStore&&) = delete;  // dirs are identity
  ShardedEngineStore(const ShardedEngineStore&) = delete;
  ShardedEngineStore& operator=(const ShardedEngineStore&) = delete;

  /// Applies the batch to the engine while capturing its effective records,
  /// then makes it durable: shard WAL appends first, coordinator interns +
  /// commit marker last. If an append throws, the in-memory engine is ahead
  /// of the durable log — discard the store object and open() the directory
  /// again to get back to the last committed batch.
  void apply(const core::RbacDelta& delta);

  /// Full sharded audit with version publication enabled: the completed
  /// reaudit() publishes an immutable core::EngineVersion readers can pin
  /// concurrently via engine().published(). Single-writer like apply().
  core::AuditReport reaudit();

  /// Freezes the current state as the next checkpoint generation and prunes
  /// everything it supersedes. Returns the new checkpoint id.
  ///
  /// Asymmetry with EngineStore::checkpoint(): bodies are frozen from the
  /// *live* engine, whose role partition splits them per shard, not from a
  /// published version. The consistency obligation moves to the caller:
  /// checkpoint() must run on the writer thread strictly between apply()
  /// batches (service::AuditService guarantees exactly that), where the live
  /// rows equal the committed WAL prefix by construction.
  std::uint64_t checkpoint();

  /// The live sharded engine. Mutating it directly bypasses the WALs — use
  /// apply() for anything that must survive a crash.
  [[nodiscard]] core::ShardedEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const core::ShardedEngine& engine() const noexcept { return *engine_; }

  /// Committed coordinator records (interns + commit markers) so far.
  [[nodiscard]] std::uint64_t records() const noexcept { return coord_.next_record(); }
  /// Committed edge records in shard `s`'s WAL stream.
  [[nodiscard]] std::uint64_t shard_records(std::size_t s) const {
    return shard_wals_.at(s).next_record();
  }

  [[nodiscard]] std::size_t num_shards() const noexcept { return shard_wals_.size(); }
  [[nodiscard]] std::uint64_t checkpoint_id() const noexcept { return checkpoint_id_; }
  [[nodiscard]] const ShardedRecoveryInfo& recovery() const noexcept { return recovery_; }

 private:
  ShardedEngineStore(std::filesystem::path dir, StoreOptions store_options, std::size_t shards);
  /// Bodies + names + MANIFEST for generation `id` (the rename of MANIFEST
  /// is the commit point; nothing is pruned here).
  void write_checkpoint_files(std::uint64_t id);
  /// Deletes names/body files of generations other than `keep`.
  void prune_stale_checkpoints(std::uint64_t keep);

  std::filesystem::path dir_;
  std::unique_ptr<core::ShardedEngine> engine_;
  Wal coord_;
  std::vector<Wal> shard_wals_;
  std::uint64_t checkpoint_id_ = 0;
  ShardedRecoveryInfo recovery_;
};

}  // namespace rolediet::store
