// The durable store's one I/O seam. Every byte the store writes, and every
// fsync and rename it makes, goes through here, so each durability decision
// is made once. Failures throw StoreError, the root of every store error.
//
// Numbered store files (WAL segments, snapshots, names files, shard bodies)
// share one naming scheme: <prefix><N zero-padded to 20 digits><suffix>, so
// lexicographic order is numeric order.
//
// Tests can fail the Nth seam call of one kind with a chosen errno
// (inject_fault()); unarmed, that hook costs a call one relaxed atomic load.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rolediet::store {

class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes all bytes, retrying short writes and EINTR.
void write_all(int fd, const void* data, std::size_t size, const std::filesystem::path& file);

void fsync_file(int fd, const std::filesystem::path& file);

/// Makes entries created, renamed or removed in `dir` durable. EINVAL and
/// EROFS, a filesystem that cannot sync directories, are tolerated: the
/// entry is as durable as that filesystem makes it. EIO and the rest throw.
void fsync_dir(const std::filesystem::path& dir);

/// Replaces `path` with the bytes `fill` streams: they go to `<path>.tmp`,
/// which is fsynced and renamed over `path`, and the directory is fsynced.
/// A crash leaves the old or the new file under `path`, never a torn one.
void write_file_atomic(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill);

struct NumberedFiles {
  std::string_view prefix;
  std::string_view suffix;

  [[nodiscard]] std::string name(std::uint64_t n) const;
  /// nullopt for any other name, a `.tmp` leftover included.
  [[nodiscard]] std::optional<std::uint64_t> number(const std::filesystem::path& file) const;
  /// Regular files of this family in `dir`, by increasing N.
  [[nodiscard]] std::vector<std::filesystem::path> list(const std::filesystem::path& dir) const;
};

inline constexpr NumberedFiles kWalSegmentFiles{"wal-", ".log"};
inline constexpr NumberedFiles kSnapshotFiles{"snap-", ".rdsnap"};
inline constexpr NumberedFiles kNamesFiles{"names-", ".rdnames"};
inline constexpr NumberedFiles kBodyFiles{"body-", ".rdbody"};
inline constexpr std::string_view kManifestFile = "MANIFEST";

/// Creates `dir` for a new store, or for one of a sharded store's logs, if
/// missing. Throws StoreError when it already holds store files: a snapshot
/// or WAL segment, or a MANIFEST — a store of either layout.
void create_store_dir(const std::filesystem::path& dir);

enum class IoCall { kWrite, kFileFsync, kDirFsync, kRename };

/// Test-only: the `nth` call of `kind` from now on (1-based) fails with
/// `error` instead of reaching the OS; `nth` 0 fails none and only counts.
void inject_fault(IoCall kind, std::uint64_t nth, int error);

/// Disarms inject_fault(); returns the calls of the armed kind it saw.
std::uint64_t clear_fault();

}  // namespace rolediet::store
