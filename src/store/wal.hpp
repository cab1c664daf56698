// Segmented write-ahead log of RBAC mutations.
//
// The durable store (engine_store.hpp) makes AuditEngine state crash-safe
// with the classic snapshot + WAL pair: every mutation is appended here
// *before* it is applied to the engine, so after a crash the engine is
// reconstructed as "newest snapshot + replay of the WAL tail". Record
// payloads are exactly the PR-4 journal records (io/journal.hpp,
// `assign-user,ROLE,USER` CSV) — the human-debuggable, name-based mutation
// format — wrapped in a binary frame that makes torn writes detectable:
//
//   segment file  wal-<START>.log   (START = global index of its first record,
//                                    20-digit zero-padded decimal, so
//                                    lexicographic order == record order)
//     magic   "RDWAL1\n\0"                              8 bytes
//     u32     format version (core::kWalFormatVersion)  little-endian
//     u64     START (echoed from the name)
//     records, each:
//       u32   payload byte length
//       u32   CRC32 of the payload (util/crc32.hpp)
//       raw   payload (one journal CSV record, no trailing newline)
//
// A segment is append-only and never rewritten; rotation starts a fresh
// segment once the active one exceeds `segment_bytes` (and at every
// checkpoint), and retention deletes segments made obsolete by a snapshot.
// Reading distinguishes three terminal states: clean end (segment ends at a
// record boundary), torn tail (trailing bytes that do not form a complete
// CRC-valid record — the expected result of a crash mid-append; recovery
// truncates them), and torn header (file shorter than the header — a crash
// during segment creation; the segment holds no committed records).
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "store/file_io.hpp"

namespace rolediet::store {

class WalError : public StoreError {
 public:
  using StoreError::StoreError;
};

/// The remaining bytes of a segment do not form a complete valid record.
/// WalSegmentReader::offset() points at the last good record boundary.
class WalTornTail : public WalError {
 public:
  using WalError::WalError;
};

/// The file is shorter than the segment header: a crash during segment
/// creation. No committed records.
class WalTornHeader : public WalError {
 public:
  using WalError::WalError;
};

/// When the OS is asked to flush appended records to stable storage.
enum class FsyncPolicy {
  kEveryRecord,  ///< fsync after every record: no committed record is ever lost
  kEveryBatch,   ///< fsync once per append_batch() / explicit sync()
  kNone,         ///< never fsync (tests, bulk loads); the OS decides
};

[[nodiscard]] std::string_view to_string(FsyncPolicy policy) noexcept;

/// Rotation threshold both stores give their WAL segments.
inline constexpr std::size_t kWalSegmentBytes = 4u << 20;

/// Builds the segment file name for a given starting record index.
[[nodiscard]] std::string wal_segment_name(std::uint64_t start_record);

/// Parses START from a segment file name; nullopt for non-segment files.
[[nodiscard]] std::optional<std::uint64_t> wal_segment_start(const std::filesystem::path& file);

/// Segment files in `dir`, sorted by starting record index.
[[nodiscard]] std::vector<std::filesystem::path> list_wal_segments(
    const std::filesystem::path& dir);

/// Sequential reader over one segment. Construction validates the header
/// (WalTornHeader on a short file, WalError on wrong magic or format
/// version); next() yields payloads until the clean end of the segment or a
/// torn tail.
class WalSegmentReader {
 public:
  explicit WalSegmentReader(const std::filesystem::path& file);

  [[nodiscard]] std::uint64_t start_record() const noexcept { return start_record_; }

  /// Reads the next record payload; false at a clean end of the segment.
  /// Throws WalTornTail when the remaining bytes are not a complete valid
  /// record (offset() then marks the truncation point).
  bool next(std::string& payload);

  /// Byte offset just past the last successfully read record (the header
  /// for a fresh reader) — the safe truncation point after a torn tail.
  [[nodiscard]] std::uint64_t offset() const noexcept { return good_offset_; }

  /// Global index of the next record to be read.
  [[nodiscard]] std::uint64_t record_index() const noexcept { return start_record_ + count_; }

 private:
  std::ifstream in_;
  std::filesystem::path file_;
  std::uint64_t start_record_ = 0;
  std::uint64_t good_offset_ = 0;
  std::uint64_t count_ = 0;
};

/// What recovery cut off the tails of WAL logs.
struct TailRepair {
  std::uint64_t truncated_bytes = 0;  ///< torn (sharded: also uncommitted) bytes
  bool dropped_torn_segment = false;  ///< a torn-header final segment was deleted
};

/// What recover_log() left of one WAL directory.
struct RecoveredLog {
  struct Record {
    std::string payload;
    std::size_t segment = 0;   ///< index into `segments`
    std::uint64_t offset = 0;  ///< where its frame starts in that segment
  };
  std::vector<std::filesystem::path> segments;  ///< surviving, in record order
  std::uint64_t end_offset = 0;  ///< committed bytes of segments.back()
  std::uint64_t base = 0;
  std::uint64_t end = 0;         ///< one past the last surviving record, or `base`
  std::vector<Record> records;   ///< records [base, end)
};

/// The one WAL recovery walk, shared by both store layouts: reads every
/// segment of `dir` and keeps the records from `base` on (what the caller's
/// checkpoint does not cover). Damage is survivable only at the very tail,
/// and is recorded in `repair`: a torn final record is truncated away, a
/// final segment shorter than its header is deleted. Gaps, records missing
/// below `base` and damage anywhere else throw StoreError.
[[nodiscard]] RecoveredLog recover_log(const std::filesystem::path& dir, std::uint64_t base,
                                       TailRepair& repair);

/// Append side: owns the active segment. Move-only (holds a file handle).
class Wal {
 public:
  /// `segment_bytes` is the rotation threshold: an append that finds the
  /// active segment at or beyond it starts a new segment first.
  Wal(std::filesystem::path dir, FsyncPolicy policy, std::size_t segment_bytes);
  ~Wal();
  Wal(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens the active segment for appending at global record index
  /// `next_record`. When `resume` names an existing segment file whose
  /// committed content ends exactly at byte `resume_offset` (as reported by
  /// a WalSegmentReader that consumed it), appending resumes there;
  /// otherwise a fresh segment wal-<next_record>.log is created (truncating
  /// any stale file of that name).
  void start(std::uint64_t next_record, const std::optional<std::filesystem::path>& resume,
             std::uint64_t resume_offset);

  /// start() after recovery: continues the log's last surviving segment
  /// when it ends exactly at `next_record`, else starts a fresh one (the
  /// log lost its tail under FsyncPolicy::kNone, or holds no segment).
  void start(std::uint64_t next_record, const RecoveredLog& log);

  /// Appends one framed record and applies the fsync policy (kEveryRecord
  /// syncs; kEveryBatch treats a single record as a batch of one).
  void append(const core::Mutation& mutation);

  /// Appends the whole delta, syncing once at the end under kEveryBatch.
  void append_batch(const core::RbacDelta& delta);

  /// Appends raw payloads as one batch under the same CRC framing: one
  /// fsync at the end under kEveryBatch, per-record under kEveryRecord. The
  /// sharded store streams its own record grammar (shard-local id records,
  /// commit markers) through the identical segment format; the frame does
  /// not care what the payload says.
  void append_raw_batch(std::span<const std::string> payloads);

  /// Explicit flush to stable storage regardless of policy.
  void sync();

  /// Closes the active segment and starts a fresh one at next_record().
  void rotate();

  /// Deletes segments whose records all precede `record` (their entire range
  /// is covered by a snapshot). The active segment is never deleted.
  void prune_below(std::uint64_t record);

  /// Global index of the next record to be appended == total records ever
  /// committed to this log.
  [[nodiscard]] std::uint64_t next_record() const noexcept { return next_record_; }

 private:
  void open_segment(std::uint64_t start_record);
  void append_payload(const std::string& payload, bool sync_now);
  void close_active() noexcept;

  std::filesystem::path dir_;
  FsyncPolicy policy_ = FsyncPolicy::kEveryBatch;
  std::size_t segment_bytes_ = 1 << 20;
  int fd_ = -1;
  std::filesystem::path active_path_;
  std::uint64_t active_bytes_ = 0;  ///< committed size of the active segment
  std::uint64_t next_record_ = 0;
};

}  // namespace rolediet::store
