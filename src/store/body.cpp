#include "store/body.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>

#include "core/digest.hpp"

namespace rolediet::store {

namespace {

// Row pointers are served straight out of the mapping as size_t spans.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "mmap body requires 64-bit size_t");
static_assert(sizeof(core::Id) == sizeof(std::uint32_t));

constexpr char kBodyMagic[8] = {'R', 'D', 'B', 'O', 'D', 'Y', '1', '\0'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 5 * 8;  // 56, already 8-aligned

[[noreturn]] void fail(const std::string& what) { throw BodyError("body: " + what); }

/// A host-endian field of the mapping (unaligned-safe).
template <typename T>
[[nodiscard]] T load(const char* p) noexcept {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void check_axis(const BodyAxisData& axis, std::size_t roles) {
  if (axis.row_ptr.size() != roles + 1 || axis.row_ptr.front() != 0 ||
      axis.row_ptr.back() != axis.cols_idx.size()) {
    fail("inconsistent axis arrays");
  }
}

}  // namespace

void write_body_file(const std::filesystem::path& path, std::span<const core::Id> roles,
                     const BodyAxisData& users, const BodyAxisData& perms) {
  check_axis(users, roles.size());
  check_axis(perms, roles.size());

  write_file_atomic(path, [&](std::ostream& out) {
    // Host-endian fields, streamed with a running digest of every byte.
    core::ContentDigest digest;
    std::uint64_t written = 0;
    const auto put = [&](const void* data, std::size_t size) {
      out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
      digest.bytes(data, size);
      written += size;
    };
    const auto put_u64 = [&](std::uint64_t v) { put(&v, sizeof(v)); };
    const std::uint32_t header[2] = {kBodyFormatVersion, 2};
    put(kBodyMagic, sizeof(kBodyMagic));
    put(header, sizeof(header));
    put_u64(roles.size());
    put_u64(users.cols);
    put_u64(users.cols_idx.size());
    put_u64(perms.cols);
    put_u64(perms.cols_idx.size());
    put(users.row_ptr.data(), users.row_ptr.size_bytes());
    put(perms.row_ptr.data(), perms.row_ptr.size_bytes());
    put(roles.data(), roles.size_bytes());
    put(users.cols_idx.data(), users.cols_idx.size_bytes());
    put(perms.cols_idx.data(), perms.cols_idx.size_bytes());
    while (written % 8 != 0) put("\0", 1);
    const std::uint64_t value = digest.value();
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  });
}

MmapBody::MmapBody(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const int err = errno;
    fail("open " + path.string() + ": " + std::strerror(err));
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail("stat " + path.string() + ": " + std::strerror(err));
  }
  map_size_ = static_cast<std::size_t>(st.st_size);
  if (map_size_ < kHeaderBytes + 8) {
    ::close(fd);
    fail("truncated body " + path.string());
  }
  map_ = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail("mmap " + path.string());
  }

  const auto reject = [&](const std::string& what) {
    unmap();
    fail(what + " in " + path.string());
  };
  const char* base = static_cast<const char*>(map_);
  if (std::memcmp(base, kBodyMagic, sizeof(kBodyMagic)) != 0) reject("bad magic");
  if (load<std::uint32_t>(base + 8) != kBodyFormatVersion || load<std::uint32_t>(base + 12) != 2)
    reject("unsupported body format");
  const std::uint64_t k = load<std::uint64_t>(base + 16);
  const std::uint64_t users_cols = load<std::uint64_t>(base + 24);
  const std::uint64_t users_nnz = load<std::uint64_t>(base + 32);
  const std::uint64_t perms_cols = load<std::uint64_t>(base + 40);
  const std::uint64_t perms_nnz = load<std::uint64_t>(base + 48);

  // Bound the counts by what the mapping could hold before any arithmetic
  // on them: a hostile K or nnz would otherwise wrap the size past both
  // checks below.
  if (k > map_size_ / 20 || users_nnz > map_size_ / 4 || perms_nnz > map_size_ / 4)
    reject("size mismatch");
  std::size_t payload = kHeaderBytes + (k + 1) * 16 + k * 4 + (users_nnz + perms_nnz) * 4;
  payload = (payload + 7) / 8 * 8;
  if (payload + 8 != map_size_) reject("size mismatch");
  core::ContentDigest digest;
  digest.bytes(base, payload);
  if (digest.value() != load<std::uint64_t>(base + payload)) reject("checksum mismatch");

  const auto* users_ptr = reinterpret_cast<const std::size_t*>(base + kHeaderBytes);
  const auto* perms_ptr = users_ptr + (k + 1);
  const auto* roles_ptr = reinterpret_cast<const core::Id*>(perms_ptr + (k + 1));
  const auto* users_idx = roles_ptr + k;
  const auto* perms_idx = users_idx + users_nnz;

  // Framing checks: monotone row pointers ending at nnz, increasing gids.
  // Content validity of the column runs is checked by CsrMatrix::from_csr
  // when the engine's restore constructor copies these rows.
  auto check_ptrs = [&](const std::size_t* p, std::uint64_t nnz) {
    if (p[0] != 0 || p[k] != nnz) return false;
    for (std::uint64_t i = 0; i < k; ++i) {
      if (p[i] > p[i + 1]) return false;
    }
    return true;
  };
  if (!check_ptrs(users_ptr, users_nnz) || !check_ptrs(perms_ptr, perms_nnz))
    reject("bad row pointers");
  for (std::uint64_t i = 1; i < k; ++i) {
    if (roles_ptr[i] <= roles_ptr[i - 1]) reject("role ids not increasing");
  }

  roles_ = {roles_ptr, static_cast<std::size_t>(k)};
  users_ = {{users_ptr, static_cast<std::size_t>(k + 1)},
            {users_idx, static_cast<std::size_t>(users_nnz)},
            static_cast<std::size_t>(users_cols)};
  perms_ = {{perms_ptr, static_cast<std::size_t>(k + 1)},
            {perms_idx, static_cast<std::size_t>(perms_nnz)},
            static_cast<std::size_t>(perms_cols)};
}

void MmapBody::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
  roles_ = {};
  users_ = {};
  perms_ = {};
}

MmapBody::~MmapBody() { unmap(); }

MmapBody::MmapBody(MmapBody&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      roles_(std::exchange(other.roles_, {})),
      users_(std::exchange(other.users_, {})),
      perms_(std::exchange(other.perms_, {})) {}

}  // namespace rolediet::store
