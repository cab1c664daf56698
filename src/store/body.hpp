// Mmap-backed read-only dataset body for sharded stores.
//
// A shard checkpoint freezes the shard's current rows into one `.rdbody`
// file. Recovery maps it back with mmap(PROT_READ) and hands its rows to the
// core::ShardedEngine restore constructor as linalg::CsrView spans; the
// constructor validates and copies them, and the store unmaps the body
// before open() returns.
//
// File layout (numbers little-endian, host-endian mmap read-back — the body
// is a local cache format, not an interchange format):
//
//   magic    "RDBODY1\0"                          8 bytes
//   u32      format version (kBodyFormatVersion)
//   u32      axis count (always 2: users, perms)
//   u64      K   = role count
//   u64      users cols      u64  users nnz
//   u64      perms cols      u64  perms nnz
//   u64[K+1] users row_ptr   (8-aligned; reinterpreted as size_t spans)
//   u64[K+1] perms row_ptr
//   u32[K]   role gids (the shard's global role ids, increasing)
//   u32[nnz] users cols_idx
//   u32[nnz] perms cols_idx
//   pad to 8
//   u64      FNV-1a digest of every preceding byte
//
// write_body_file() streams the layout through store/file_io.hpp's atomic
// replace; MmapBody validates magic, version, size arithmetic, row_ptr
// framing, and the trailing digest before exposing any span.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>

#include "core/model.hpp"
#include "linalg/csr_matrix.hpp"
#include "store/file_io.hpp"

namespace rolediet::store {

inline constexpr std::uint32_t kBodyFormatVersion = 1;

class BodyError : public StoreError {
 public:
  using StoreError::StoreError;
};

/// One axis of a shard as the writer consumes it.
struct BodyAxisData {
  std::span<const std::size_t> row_ptr;  ///< K+1 offsets
  std::span<const core::Id> cols_idx;    ///< nnz sorted-per-row indices
  std::uint64_t cols = 0;                ///< axis entity count at checkpoint
};

/// Writes the body atomically (write_file_atomic). Throws BodyError on
/// inconsistent inputs, StoreError on I/O failure.
void write_body_file(const std::filesystem::path& path, std::span<const core::Id> roles,
                     const BodyAxisData& users, const BodyAxisData& perms);

/// Read-only mapping of one body file. The spans alias the mapping, so they
/// are valid only while the MmapBody lives.
class MmapBody {
 public:
  explicit MmapBody(const std::filesystem::path& path);
  ~MmapBody();
  MmapBody(MmapBody&& other) noexcept;
  MmapBody(const MmapBody&) = delete;
  MmapBody& operator=(const MmapBody&) = delete;

  [[nodiscard]] std::span<const core::Id> roles() const noexcept { return roles_; }
  [[nodiscard]] linalg::CsrView users() const noexcept { return users_; }
  [[nodiscard]] linalg::CsrView perms() const noexcept { return perms_; }

 private:
  void unmap() noexcept;

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::span<const core::Id> roles_;
  linalg::CsrView users_;
  linalg::CsrView perms_;
};

}  // namespace rolediet::store
