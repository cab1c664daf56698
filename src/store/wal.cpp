#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <system_error>
#include <utility>

#include "core/version.hpp"
#include "io/journal.hpp"
#include "util/crc32.hpp"

namespace rolediet::store {

namespace fs = std::filesystem;

namespace {

constexpr std::array<char, 8> kWalMagic{'R', 'D', 'W', 'A', 'L', '1', '\n', '\0'};
constexpr std::size_t kHeaderBytes = kWalMagic.size() + 4 + 8;
/// A frame length beyond this is treated as tail corruption, not a record: a
/// single journal CSV record is a few names, never megabytes.
constexpr std::uint32_t kMaxRecordBytes = 1u << 24;

/// Appends the low `bytes` bytes of `v`, little-endian.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Decodes `bytes` little-endian bytes.
std::uint64_t get_le(const unsigned char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::string_view to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kEveryRecord: return "every-record";
    case FsyncPolicy::kEveryBatch: return "every-batch";
    case FsyncPolicy::kNone: return "none";
  }
  return "unknown";
}

std::string wal_segment_name(std::uint64_t start) { return kWalSegmentFiles.name(start); }

std::optional<std::uint64_t> wal_segment_start(const fs::path& file) {
  return kWalSegmentFiles.number(file);
}

std::vector<fs::path> list_wal_segments(const fs::path& dir) { return kWalSegmentFiles.list(dir); }

// ---- WalSegmentReader ----

WalSegmentReader::WalSegmentReader(const fs::path& file)
    : in_(file, std::ios::binary), file_(file) {
  if (!in_.is_open()) throw WalError("wal: cannot open segment " + file.string());
  std::array<unsigned char, kHeaderBytes> header{};
  in_.read(reinterpret_cast<char*>(header.data()), static_cast<std::streamsize>(header.size()));
  if (in_.gcount() != static_cast<std::streamsize>(header.size())) {
    throw WalTornHeader("wal: torn segment header in " + file.string() + " (" +
                        std::to_string(in_.gcount()) + " of " + std::to_string(kHeaderBytes) +
                        " bytes)");
  }
  if (std::memcmp(header.data(), kWalMagic.data(), kWalMagic.size()) != 0)
    throw WalError("wal: bad magic in " + file.string());
  const std::uint64_t format = get_le(header.data() + kWalMagic.size(), 4);
  if (format != core::kWalFormatVersion) {
    throw WalError("wal: segment " + file.string() + " has format version " +
                   std::to_string(format) + "; this build reads version " +
                   std::to_string(core::kWalFormatVersion));
  }
  start_record_ = get_le(header.data() + kWalMagic.size() + 4, 8);
  const auto named = wal_segment_start(file);
  if (named && *named != start_record_) {
    throw WalError("wal: segment " + file.string() + " header claims start record " +
                   std::to_string(start_record_));
  }
  good_offset_ = kHeaderBytes;
}

bool WalSegmentReader::next(std::string& payload) {
  std::array<unsigned char, 8> frame{};
  in_.read(reinterpret_cast<char*>(frame.data()), static_cast<std::streamsize>(frame.size()));
  const auto got = in_.gcount();
  if (got == 0 && in_.eof()) return false;  // clean end: exactly at a boundary
  if (got != static_cast<std::streamsize>(frame.size())) {
    throw WalTornTail("wal: torn frame header at offset " + std::to_string(good_offset_) +
                      " in " + file_.string());
  }
  const std::uint64_t length = get_le(frame.data(), 4);
  const std::uint64_t crc = get_le(frame.data() + 4, 4);
  if (length > kMaxRecordBytes) {
    throw WalTornTail("wal: implausible record length " + std::to_string(length) +
                      " at offset " + std::to_string(good_offset_) + " in " + file_.string());
  }
  payload.resize(length);
  in_.read(payload.data(), static_cast<std::streamsize>(length));
  if (in_.gcount() != static_cast<std::streamsize>(length)) {
    throw WalTornTail("wal: torn record payload at offset " + std::to_string(good_offset_) +
                      " in " + file_.string());
  }
  if (util::crc32(payload.data(), payload.size()) != crc) {
    throw WalTornTail("wal: CRC mismatch at offset " + std::to_string(good_offset_) + " in " +
                      file_.string());
  }
  good_offset_ += 8 + length;
  ++count_;
  return true;
}

// ---- recovery walk ----

RecoveredLog recover_log(const fs::path& dir, std::uint64_t base, TailRepair& repair) {
  RecoveredLog log;
  log.base = base;
  const std::vector<fs::path> segments = list_wal_segments(dir);
  std::optional<std::uint64_t> expected;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const bool last = i + 1 == segments.size();
    std::unique_ptr<WalSegmentReader> reader;
    try {
      reader = std::make_unique<WalSegmentReader>(segments[i]);
    } catch (const WalTornHeader& e) {
      if (!last) throw WalError("store: WAL damage before the log tail: " + std::string(e.what()));
      // Crash during segment creation: the segment holds nothing committed.
      std::error_code ec;
      fs::remove(segments[i], ec);
      if (ec)
        throw WalError("store: cannot drop torn segment " + segments[i].string() + ": " +
                       ec.message());
      repair.dropped_torn_segment = true;
      break;
    }

    if (expected && reader->start_record() != *expected) {
      throw WalError("store: WAL gap: segment " + segments[i].string() + " starts at record " +
                     std::to_string(reader->start_record()) + ", expected " +
                     std::to_string(*expected));
    }
    if (!expected && reader->start_record() > base) {
      throw WalError("store: WAL in " + dir.string() + " is missing records " +
                     std::to_string(base) + ".." + std::to_string(reader->start_record()) +
                     " needed by its checkpoint");
    }

    log.segments.push_back(segments[i]);
    std::string payload;
    while (true) {
      const std::uint64_t offset = reader->offset();
      try {
        if (!reader->next(payload)) break;
      } catch (const WalTornTail& e) {
        if (!last)
          throw WalError("store: WAL damage before the log tail: " + std::string(e.what()));
        // Crash mid-append: discard the torn bytes so the next append
        // continues from the last committed record boundary.
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(segments[i], ec);
        if (!ec) fs::resize_file(segments[i], reader->offset(), ec);
        if (ec)
          throw WalError("store: cannot truncate torn tail of " + segments[i].string() + ": " +
                         ec.message());
        repair.truncated_bytes += size - reader->offset();
        break;
      }
      if (reader->record_index() - 1 >= base)
        log.records.push_back({std::move(payload), log.segments.size() - 1, offset});
    }
    expected = reader->record_index();
    log.end_offset = reader->offset();
  }
  log.end = expected.value_or(base);
  return log;
}

// ---- Wal ----

Wal::Wal(fs::path dir, FsyncPolicy policy, std::size_t segment_bytes)
    : dir_(std::move(dir)), policy_(policy), segment_bytes_(segment_bytes) {
  if (segment_bytes_ < kHeaderBytes + 16)
    throw WalError("wal: segment_bytes too small to hold any record");
}

Wal::~Wal() { close_active(); }

Wal::Wal(Wal&& other) noexcept
    : dir_(std::move(other.dir_)),
      policy_(other.policy_),
      segment_bytes_(other.segment_bytes_),
      fd_(std::exchange(other.fd_, -1)),
      active_path_(std::move(other.active_path_)),
      active_bytes_(other.active_bytes_),
      next_record_(other.next_record_) {}

void Wal::close_active() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Wal::open_segment(std::uint64_t start_record) {
  close_active();
  active_path_ = dir_ / wal_segment_name(start_record);
  fd_ = ::open(active_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0)
    throw WalError("wal: cannot create segment " + active_path_.string() + ": " +
                   std::strerror(errno));
  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kWalMagic.data(), kWalMagic.size());
  put_le(header, core::kWalFormatVersion, 4);
  put_le(header, start_record, 8);
  write_all(fd_, header.data(), header.size(), active_path_);
  active_bytes_ = header.size();
  if (policy_ != FsyncPolicy::kNone) {
    fsync_file(fd_, active_path_);
    fsync_dir(dir_);
  }
}

void Wal::start(std::uint64_t next_record, const std::optional<fs::path>& resume,
                std::uint64_t resume_offset) {
  next_record_ = next_record;
  if (resume) {
    close_active();
    // Recovery already truncated the file to the last good boundary; reopen
    // for appending at exactly that offset.
    active_path_ = *resume;
    fd_ = ::open(active_path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0)
      throw WalError("wal: cannot reopen segment " + active_path_.string() + ": " +
                     std::strerror(errno));
    active_bytes_ = resume_offset;
    return;
  }
  open_segment(next_record);
}

void Wal::start(std::uint64_t next_record, const RecoveredLog& log) {
  if (log.segments.empty() || log.end != next_record) return start(next_record, std::nullopt, 0);
  start(next_record, log.segments.back(), log.end_offset);
}

void Wal::append_payload(const std::string& payload, bool sync_now) {
  if (fd_ < 0) throw WalError("wal: append before start()");
  if (active_bytes_ >= segment_bytes_) open_segment(next_record_);
  std::string frame;
  frame.reserve(8 + payload.size());
  put_le(frame, payload.size(), 4);
  put_le(frame, util::crc32(payload.data(), payload.size()), 4);
  frame.append(payload);
  write_all(fd_, frame.data(), frame.size(), active_path_);
  active_bytes_ += frame.size();
  ++next_record_;
  if (sync_now) fsync_file(fd_, active_path_);
}

void Wal::append(const core::Mutation& mutation) {
  append_payload(io::format_journal_record(mutation), policy_ != FsyncPolicy::kNone);
}

void Wal::append_batch(const core::RbacDelta& delta) {
  for (const core::Mutation& mutation : delta.mutations)
    append_payload(io::format_journal_record(mutation), policy_ == FsyncPolicy::kEveryRecord);
  if (policy_ == FsyncPolicy::kEveryBatch && !delta.empty()) sync();
}

void Wal::append_raw_batch(std::span<const std::string> payloads) {
  for (const std::string& payload : payloads)
    append_payload(payload, policy_ == FsyncPolicy::kEveryRecord);
  if (policy_ == FsyncPolicy::kEveryBatch && !payloads.empty()) sync();
}

void Wal::sync() {
  if (fd_ >= 0) fsync_file(fd_, active_path_);
}

void Wal::rotate() {
  if (fd_ >= 0 && policy_ != FsyncPolicy::kNone) fsync_file(fd_, active_path_);
  open_segment(next_record_);
}

void Wal::prune_below(std::uint64_t record) {
  const std::vector<fs::path> segments = list_wal_segments(dir_);
  bool removed = false;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i covers [start_i, start_{i+1}); prunable only when that whole
    // range is below the snapshot's record count.
    if (*wal_segment_start(segments[i + 1]) > record) break;
    if (segments[i] == active_path_) break;
    std::error_code ec;
    fs::remove(segments[i], ec);
    if (ec)
      throw WalError("wal: cannot prune segment " + segments[i].string() + ": " + ec.message());
    removed = true;
  }
  if (removed && policy_ != FsyncPolicy::kNone) fsync_dir(dir_);
}

}  // namespace rolediet::store
