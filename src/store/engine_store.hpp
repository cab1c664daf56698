// Durable audit engine: crash-safe snapshot + WAL store.
//
// EngineStore is the facade over snapshot.hpp and wal.hpp that gives
// core::AuditEngine the durability the in-memory engine lacks: every
// mutation batch is written to the WAL *before* it reaches the engine, and
// checkpoint() periodically collapses the log into an atomic snapshot. A
// store directory holds only two kinds of files —
//
//   snap-<N>.rdsnap   engine image with WAL records [0, N) applied
//   wal-<S>.log       mutation records [S, next segment's start)
//
// — and open() reconstructs the exact pre-crash engine from them:
//
//   1. pick the newest snapshot that reads and validates end-to-end (a
//      corrupt newest snapshot falls back to the previous one — retention
//      keeps two, plus every WAL segment the older one still needs);
//   2. build an AuditEngine from its dataset and restore the persistent
//      state (counters, dirty frontier, pair caches; caches are dropped when
//      the requested audit options' fingerprint differs);
//   3. replay WAL records >= N through AuditEngine::apply(); recover_log
//      (wal.hpp) repairs crash damage at the log tail and refuses any
//      elsewhere.
//
// The recovered engine is then bit-for-bit the engine a clean process would
// have after applying the same committed prefix — the fault-injection suite
// (tests/store_fault_injection_test.cpp) asserts reaudit() byte-identity at
// every truncation point.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "core/engine.hpp"
#include "core/framework.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace rolediet::store {

struct StoreOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
};

/// What open() had to do to bring the store back — surfaced so callers (the
/// CLI `recover` command, tests) can report and assert on it.
struct RecoveryInfo : TailRepair {
  std::filesystem::path snapshot_path;  ///< snapshot the engine was built from
  std::uint64_t snapshot_records = 0;   ///< WAL records baked into it
  std::uint64_t replayed_records = 0;   ///< WAL records replayed on top
  std::uint64_t total_records = 0;      ///< committed records after recovery
  bool used_fallback_snapshot = false;  ///< newest snapshot was invalid
  bool caches_dropped = false;          ///< option fingerprint mismatch
};

class EngineStore {
 public:
  /// Initializes `dir` (created if missing, must not already hold a store of
  /// either layout) with the dataset's baseline snapshot at record 0 and an
  /// empty first WAL segment. Throws StoreError on an existing store or I/O
  /// failure.
  [[nodiscard]] static EngineStore create(const std::filesystem::path& dir,
                                          const core::RbacDataset& dataset,
                                          const core::AuditOptions& options,
                                          StoreOptions store_options = {});

  /// Recovers the engine from `dir` (see file comment for the algorithm)
  /// and reopens the WAL for appending. Throws StoreError when no valid
  /// snapshot exists or the surviving log is inconsistent (gaps, damage
  /// before the tail).
  [[nodiscard]] static EngineStore open(const std::filesystem::path& dir,
                                        const core::AuditOptions& options,
                                        StoreOptions store_options = {});

  EngineStore(EngineStore&&) = default;
  EngineStore& operator=(EngineStore&&) = delete;  // wal dir is part of identity
  EngineStore(const EngineStore&) = delete;
  EngineStore& operator=(const EngineStore&) = delete;

  /// Durably logs the batch, then applies it to the engine. The WAL-first
  /// order is the crash-safety invariant: a mutation the engine has seen is
  /// always in the log (under FsyncPolicy::kNone the OS may still lose the
  /// tail — then recovery yields the surviving prefix).
  void apply(const core::RbacDelta& delta);

  /// Full audit of the live engine with version publication enabled: the
  /// completed reaudit() publishes an immutable core::EngineVersion readers
  /// can pin concurrently (engine().published()), and the store remembers the
  /// WAL position the version corresponds to — the position checkpoint()
  /// snapshots from. Single-writer like every other mutation entry point.
  core::AuditReport reaudit();

  /// Writes an atomic snapshot, rotates the log, and prunes snapshots /
  /// segments no retained snapshot needs: two snapshots are kept, so a
  /// corrupt newest one falls back to its predecessor. Returns the snapshot
  /// path. On
  /// failure the store is still readable from the previous snapshot (nothing
  /// is pruned before the new snapshot is durable).
  ///
  /// Once reaudit() has published a version, the snapshot is captured from
  /// that *published* version at its publish-time WAL position — never from
  /// the live engine. That keeps checkpointing correct while a delta batch
  /// is in flight on the writer: capturing the live engine at the current
  /// WAL position would bake a half-applied batch into an image that claims
  /// the full log prefix, and recovery would resurrect the torn state. The
  /// WAL tail past the published position is replayed by open() as usual.
  /// Before any reaudit() (no version yet) the snapshot captures the live
  /// engine at the current position — the single-threaded bootstrap path.
  std::filesystem::path checkpoint();

  /// The live engine. Mutating it directly bypasses the WAL — use apply()
  /// for anything that must survive a crash; reaudit() and reads are fine.
  [[nodiscard]] core::AuditEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const core::AuditEngine& engine() const noexcept { return *engine_; }

  /// Committed WAL records so far.
  [[nodiscard]] std::uint64_t records() const noexcept { return wal_.next_record(); }

  /// WAL position of the last published version (what checkpoint() uses once
  /// a version exists); 0 before the first reaudit().
  [[nodiscard]] std::uint64_t published_records() const noexcept { return published_records_; }

  [[nodiscard]] const RecoveryInfo& recovery() const noexcept { return recovery_; }

 private:
  EngineStore(std::filesystem::path dir, StoreOptions store_options);

  std::filesystem::path dir_;
  std::unique_ptr<core::AuditEngine> engine_;  // heap-held: stable address across store moves
  Wal wal_;
  RecoveryInfo recovery_;
  std::uint64_t published_records_ = 0;  ///< WAL position of engine().published()
};

}  // namespace rolediet::store
