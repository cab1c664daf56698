#include "store/snapshot.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>

#include "core/version.hpp"
#include "io/binary.hpp"

namespace rolediet::store {

namespace fs = std::filesystem;

namespace {

constexpr std::array<char, 8> kSnapMagic{'R', 'D', 'S', 'N', 'A', 'P', '1', '\0'};
/// Caps u64-prefixed list sizes read from disk before allocation; a snapshot
/// claiming more dirty flags or cached pairs than this is corrupt, not big.
constexpr std::uint64_t kSaneListLimit = 1ULL << 32;

void write_axis(io::BinaryWriter& w, const core::EnginePersistentState::AxisState& axis) {
  w.u64(axis.dirty.size());
  if (!axis.dirty.empty()) w.payload(axis.dirty.data(), axis.dirty.size());
  w.u8(axis.similar_valid ? 1 : 0);
  if (axis.similar_valid) {
    w.u64(axis.similar_pairs.size());
    for (const auto& [a, b] : axis.similar_pairs) {
      w.u32(a);
      w.u32(b);
    }
  }
}

core::EnginePersistentState::AxisState read_axis(io::BinaryReader& r, const fs::path& file) {
  core::EnginePersistentState::AxisState axis;
  const std::uint64_t dirty_size = r.u64();
  if (dirty_size > kSaneListLimit)
    throw SnapshotError("snapshot: implausible dirty-flag count in " + file.string());
  axis.dirty.resize(dirty_size);
  if (dirty_size > 0) r.payload(axis.dirty.data(), dirty_size);
  axis.similar_valid = r.u8() != 0;
  if (axis.similar_valid) {
    const std::uint64_t pair_count = r.u64();
    if (pair_count > kSaneListLimit)
      throw SnapshotError("snapshot: implausible pair-cache size in " + file.string());
    axis.similar_pairs.reserve(pair_count);
    for (std::uint64_t i = 0; i < pair_count; ++i) {
      const std::uint32_t a = r.u32();
      const std::uint32_t b = r.u32();
      axis.similar_pairs.emplace_back(a, b);
    }
  }
  return axis;
}

}  // namespace

OptionFingerprint OptionFingerprint::of(const core::AuditOptions& options) {
  OptionFingerprint fp;
  fp.method = options.method;
  fp.detect_similar = options.detect_similar;
  fp.similarity_mode = options.similarity_mode;
  fp.similarity_threshold = options.similarity_threshold;
  fp.jaccard_dissimilarity = options.jaccard_dissimilarity;
  return fp;
}

EngineSnapshot capture_snapshot(const core::AuditEngine& engine, std::uint64_t wal_records) {
  EngineSnapshot snapshot;
  snapshot.wal_records = wal_records;
  snapshot.fingerprint = OptionFingerprint::of(engine.options());
  snapshot.dataset = engine.snapshot();
  snapshot.engine = engine.persistent_state();
  return snapshot;
}

EngineSnapshot capture_snapshot(const core::EngineVersion& version,
                                const core::AuditOptions& options, std::uint64_t wal_records) {
  EngineSnapshot snapshot;
  snapshot.wal_records = wal_records;
  snapshot.fingerprint = OptionFingerprint::of(options);
  snapshot.dataset = *version.dataset;
  snapshot.engine = version.state;
  return snapshot;
}

std::string snapshot_name(std::uint64_t wal_records) { return kSnapshotFiles.name(wal_records); }

std::optional<std::uint64_t> snapshot_records(const fs::path& file) {
  return kSnapshotFiles.number(file);
}

std::vector<fs::path> list_snapshots(const fs::path& dir) { return kSnapshotFiles.list(dir); }

fs::path SnapshotWriter::write(const EngineSnapshot& snapshot) const {
  const fs::path final_path = dir_ / snapshot_name(snapshot.wal_records);
  write_file_atomic(final_path, [&](std::ostream& out) {
    io::BinaryWriter w(out);
    w.raw(kSnapMagic.data(), kSnapMagic.size());
    w.u32(core::kSnapshotFormatVersion);
    w.u64(snapshot.wal_records);

    const OptionFingerprint& fp = snapshot.fingerprint;
    w.u8(static_cast<std::uint8_t>(fp.method));
    w.u8(fp.detect_similar ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(fp.similarity_mode));
    w.u64(fp.similarity_threshold);
    w.u64(std::bit_cast<std::uint64_t>(fp.jaccard_dissimilarity));

    io::write_dataset_body(w, snapshot.dataset);

    w.u64(snapshot.engine.version);
    w.u64(snapshot.engine.audits);
    w.u8(snapshot.engine.audited_once ? 1 : 0);
    write_axis(w, snapshot.engine.users);
    write_axis(w, snapshot.engine.perms);
    w.finish();
  });
  return final_path;
}

EngineSnapshot SnapshotReader::read() const {
  std::ifstream in(file_, std::ios::binary);
  if (!in) throw SnapshotError("snapshot: cannot open " + file_.string());
  io::BinaryReader r(in);

  std::array<char, 8> magic{};
  try {
    r.raw(magic.data(), magic.size());
  } catch (const io::BinaryError&) {
    throw SnapshotError("snapshot: truncated magic in " + file_.string());
  }
  if (std::memcmp(magic.data(), kSnapMagic.data(), kSnapMagic.size()) != 0)
    throw SnapshotError("snapshot: bad magic in " + file_.string());
  const std::uint32_t format = r.u32();
  if (format == 0 || format > core::kSnapshotFormatVersion) {
    throw SnapshotError("snapshot: " + file_.string() + " has format version " +
                        std::to_string(format) + "; this build reads versions 1 to " +
                        std::to_string(core::kSnapshotFormatVersion));
  }

  EngineSnapshot snapshot;
  snapshot.wal_records = r.u64();
  const auto named = snapshot_records(file_);
  if (named && *named != snapshot.wal_records)
    throw SnapshotError("snapshot: " + file_.string() + " header claims record count " +
                        std::to_string(snapshot.wal_records));

  OptionFingerprint& fp = snapshot.fingerprint;
  fp.method = static_cast<core::Method>(r.u8());
  fp.detect_similar = r.u8() != 0;
  fp.similarity_mode = static_cast<core::SimilarityMode>(r.u8());
  fp.similarity_threshold = r.u64();
  fp.jaccard_dissimilarity = std::bit_cast<double>(r.u64());

  snapshot.dataset = io::read_dataset_body(r);

  snapshot.engine.version = r.u64();
  snapshot.engine.audits = r.u64();
  snapshot.engine.audited_once = r.u8() != 0;
  snapshot.engine.users = read_axis(r, file_);
  snapshot.engine.perms = read_axis(r, file_);

  try {
    r.verify_digest();
  } catch (const io::BinaryError& e) {
    throw SnapshotError(std::string("snapshot: ") + e.what());
  }
  return snapshot;
}

}  // namespace rolediet::store
