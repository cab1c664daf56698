#include "store/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <streambuf>
#include <system_error>

namespace rolediet::store {

namespace fs = std::filesystem;

namespace {

struct Fault {
  IoCall kind = IoCall::kWrite;
  std::uint64_t nth = 0;
  int error = 0;
  std::uint64_t seen = 0;
};

std::atomic<bool> g_armed{false};
std::mutex g_fault_mutex;
Fault g_fault;

/// The errno an armed fault gives this call; 0 lets it reach the OS.
int injected(IoCall kind) {
  if (!g_armed.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(g_fault_mutex);
  if (!g_armed.load(std::memory_order_relaxed) || g_fault.kind != kind) return 0;
  return ++g_fault.seen == g_fault.nth ? g_fault.error : 0;
}

[[noreturn]] void fail(const std::string& what, const fs::path& file, int error) {
  throw StoreError("store: " + what + " " + file.string() + ": " + std::strerror(error));
}

/// Output buffer whose every flush goes through write_all(). 64 KiB, eight
/// times an std::ofstream's, so it makes no more write calls than one.
class FdStreamBuf : public std::streambuf {
 public:
  FdStreamBuf(int fd, const fs::path& file) : fd_(fd), file_(file), buffer_(64 << 10) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

 protected:
  int_type overflow(int_type ch) override {
    sync();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) sputc(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }

  int sync() override {
    write_all(fd_, pbase(), static_cast<std::size_t>(pptr() - pbase()), file_);
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    return 0;
  }

 private:
  int fd_;
  const fs::path& file_;
  std::vector<char> buffer_;
};

/// Streams `fill` into a fresh `file` and fsyncs it.
void write_synced(const fs::path& file, const std::function<void(std::ostream&)>& fill) {
  const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create", file, errno);
  try {
    FdStreamBuf buffer(fd, file);
    std::ostream out(&buffer);
    out.exceptions(std::ios::badbit);  // rethrows write_all's StoreError as is
    fill(out);
    out.flush();
    fsync_file(fd, file);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

}  // namespace

void write_all(int fd, const void* data, std::size_t size, const fs::path& file) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    int error = injected(IoCall::kWrite);
    const ssize_t n = error != 0 ? -1 : ::write(fd, p, size);
    if (n < 0) {
      if (error == 0) error = errno;
      if (error == EINTR) continue;
      fail("write failed for", file, error);
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void fsync_file(int fd, const fs::path& file) {
  int error = injected(IoCall::kFileFsync);
  if (error == 0 && ::fsync(fd) != 0) error = errno;
  if (error != 0) fail("fsync failed for", file, error);
}

void fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("cannot open directory", dir, errno);
  int error = injected(IoCall::kDirFsync);
  if (error == 0 && ::fsync(fd) != 0) error = errno;
  ::close(fd);
  if (error != 0 && error != EINVAL && error != EROFS)
    fail("directory fsync failed for", dir, error);
}

void write_file_atomic(const fs::path& path, const std::function<void(std::ostream&)>& fill) {
  // Durability order matters: the bytes must be stable before the rename
  // makes them visible under the real name, and the rename itself must be
  // stable before the caller prunes anything the new file supersedes.
  const fs::path tmp = path.string() + ".tmp";
  try {
    write_synced(tmp, fill);
    int error = injected(IoCall::kRename);
    if (error == 0 && std::rename(tmp.c_str(), path.c_str()) != 0) error = errno;
    if (error != 0) fail("cannot rename " + tmp.string() + " to", path, error);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  fsync_dir(path.parent_path());
}

std::string NumberedFiles::name(std::uint64_t n) const {
  char digits[21];
  std::snprintf(digits, sizeof(digits), "%020llu", static_cast<unsigned long long>(n));
  return std::string(prefix) + digits + std::string(suffix);
}

std::optional<std::uint64_t> NumberedFiles::number(const fs::path& file) const {
  const std::string name = file.filename().string();
  if (name.size() != prefix.size() + 20 + suffix.size() || !name.starts_with(prefix) ||
      !name.ends_with(suffix))
    return std::nullopt;
  std::uint64_t n = 0;
  for (const char c : std::string_view(name).substr(prefix.size(), 20)) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

std::vector<fs::path> NumberedFiles::list(const fs::path& dir) const {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && number(entry.path())) files.push_back(entry.path());
  }
  if (ec) throw StoreError("store: cannot list directory " + dir.string() + ": " + ec.message());
  std::sort(files.begin(), files.end(),
            [this](const fs::path& a, const fs::path& b) { return *number(a) < *number(b); });
  return files;
}

void create_store_dir(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw StoreError("store: cannot create directory " + dir.string() + ": " + ec.message());
  if (fs::exists(dir / kManifestFile, ec) || !kSnapshotFiles.list(dir).empty() ||
      !kWalSegmentFiles.list(dir).empty())
    throw StoreError("store: " + dir.string() + " already holds a store");
}

void inject_fault(IoCall kind, std::uint64_t nth, int error) {
  std::lock_guard<std::mutex> lock(g_fault_mutex);
  g_fault = Fault{kind, nth, error, 0};
  g_armed.store(true, std::memory_order_relaxed);
}

std::uint64_t clear_fault() {
  std::lock_guard<std::mutex> lock(g_fault_mutex);
  g_armed.store(false, std::memory_order_relaxed);
  return g_fault.seen;
}

}  // namespace rolediet::store
