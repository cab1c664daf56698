// Versioned binary engine snapshots — the checkpoint half of the durable
// store (engine_store.hpp pairs them with the WAL in wal.hpp).
//
// A snapshot is a complete, self-validating image of an AuditEngine at a WAL
// position: the interned dataset (names + edges), the engine's persistent
// state (version counters, dirty frontier, cached type-5 pair verdicts), and
// the fingerprint of the audit options the caches were computed under.
// Format (io/binary.hpp conventions: little-endian integers, trailing FNV-1a
// digest of everything after the magic):
//
//   magic   "RDSNAP1\0"                                   8 bytes
//   u32     format version (core::kSnapshotFormatVersion)
//   u64     WAL record count N (records [0, N) are baked into this image)
//   fingerprint: u8 method, u8 detect_similar, u8 similarity_mode,
//                u64 hamming threshold, u64 jaccard bits (IEEE-754)
//   dataset body (io/binary.hpp write_dataset_body)
//   engine  u64 version, u64 audits, u8 audited_once, then per axis
//           (users, perms): u64-prefixed dirty bytes, u8 similar_valid,
//           and when valid a u64-prefixed (u32, u32) matched-pair list
//   u64     FNV-1a digest
//
// Format 1 (still read) also cached the pairs norms alone decide; the
// engine drops them on restore.
//
// Snapshot files are named snap-<N>.rdsnap (N zero-padded to 20 digits, so
// lexicographic order == WAL order) and written atomically: the bytes go to
// a .tmp file which is fsynced and then renamed over the final name. A crash
// mid-checkpoint leaves only a stale .tmp, never a half-written snapshot
// under the real name.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "core/framework.hpp"
#include "core/model.hpp"
#include "store/file_io.hpp"

namespace rolediet::store {

class SnapshotError : public StoreError {
 public:
  using StoreError::StoreError;
};

/// The audit options that determine cache validity. Threads, backend, and
/// time budget are deliberately excluded: the engine contract makes findings
/// identical across them, so caches survive such changes. A fingerprint
/// mismatch on restore is not an error — the caches are simply dropped.
struct OptionFingerprint {
  core::Method method = core::Method::kRoleDiet;
  bool detect_similar = true;
  core::SimilarityMode similarity_mode = core::SimilarityMode::kHamming;
  std::uint64_t similarity_threshold = 1;
  double jaccard_dissimilarity = 0.1;

  [[nodiscard]] static OptionFingerprint of(const core::AuditOptions& options);
  [[nodiscard]] bool operator==(const OptionFingerprint&) const = default;
};

/// Everything one snapshot file carries.
struct EngineSnapshot {
  std::uint64_t wal_records = 0;  ///< WAL records already reflected in `dataset`
  OptionFingerprint fingerprint;
  core::RbacDataset dataset;
  core::EnginePersistentState engine;
};

/// Captures the live engine as a snapshot positioned at `wal_records`.
/// Single-writer only: the engine must not be mutated concurrently.
[[nodiscard]] EngineSnapshot capture_snapshot(const core::AuditEngine& engine,
                                              std::uint64_t wal_records);

/// Builds a snapshot from a published immutable version (engine_version.hpp).
/// Safe while the writer keeps mutating: the version is frozen, and
/// `wal_records` must be the WAL position the version was published at —
/// claiming a later position would overclaim records the image never saw.
[[nodiscard]] EngineSnapshot capture_snapshot(const core::EngineVersion& version,
                                              const core::AuditOptions& options,
                                              std::uint64_t wal_records);

/// Builds the snapshot file name for a WAL record count.
[[nodiscard]] std::string snapshot_name(std::uint64_t wal_records);

/// Parses N from a snapshot file name; nullopt for non-snapshot files
/// (including .tmp leftovers).
[[nodiscard]] std::optional<std::uint64_t> snapshot_records(const std::filesystem::path& file);

/// Snapshot files in `dir`, sorted by WAL record count (newest last).
[[nodiscard]] std::vector<std::filesystem::path> list_snapshots(const std::filesystem::path& dir);

/// Atomic snapshot emitter bound to a store directory.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::filesystem::path dir) : dir_(std::move(dir)) {}

  /// Writes snap-<wal_records>.rdsnap atomically (store/file_io.hpp's
  /// write_file_atomic) and returns the final path. Throws StoreError on
  /// any I/O failure; the store is left readable either way.
  std::filesystem::path write(const EngineSnapshot& snapshot) const;

 private:
  std::filesystem::path dir_;
};

/// Loader for one snapshot file.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::filesystem::path file) : file_(std::move(file)) {}

  /// Reads and fully validates the snapshot (magic, format version, counts,
  /// digest). Throws SnapshotError (or io::BinaryError from the dataset
  /// body) on anything invalid — callers with an older snapshot on hand
  /// treat that as "fall back".
  [[nodiscard]] EngineSnapshot read() const;

 private:
  std::filesystem::path file_;
};

}  // namespace rolediet::store
