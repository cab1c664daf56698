#include "store/sharded_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "io/binary.hpp"

namespace rolediet::store {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestMagic[8] = {'R', 'D', 'M', 'A', 'N', '1', '\0', '\0'};
constexpr char kNamesMagic[8] = {'R', 'D', 'N', 'A', 'M', 'E', '1', '\0'};
constexpr std::uint32_t kManifestFormatVersion = 1;
constexpr std::uint32_t kNamesFormatVersion = 1;

[[noreturn]] void fail(const std::string& what) { throw StoreError("sharded store: " + what); }

// ------------------------------------------------------------- file naming --

[[nodiscard]] std::string shard_dir_name(std::size_t s) {
  std::string digits = std::to_string(s);
  return "shard-" + std::string(3 - std::min<std::size_t>(3, digits.size()), '0') + digits;
}

[[nodiscard]] fs::path manifest_path(const fs::path& dir) { return dir / kManifestFile; }

[[nodiscard]] fs::path names_path(const fs::path& dir, std::uint64_t id) {
  return dir / kNamesFiles.name(id);
}

[[nodiscard]] fs::path body_path(const fs::path& dir, std::size_t s, std::uint64_t id) {
  return dir / shard_dir_name(s) / kBodyFiles.name(id);
}

// ------------------------------------------------------- manifest + names --

// Both files are io::BinaryWriter output with the magic fed to the digest:
// little-endian fields, u64 length prefixes, and a trailing FNV-1a digest of
// every preceding byte.

/// Parses a MANIFEST or names file with `parse` once its trailing digest has
/// checked out: no count read from the file sizes an allocation or bounds a
/// loop before the file is known intact.
template <typename Parse>
auto read_checked(const fs::path& path, const std::string& what, Parse parse) {
  std::ifstream file(path, std::ios::binary);
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!file || ec || size < 8) fail("cannot read " + what + " " + path.string());
  std::string bytes(size - 8, '\0');
  try {
    io::BinaryReader check(file);
    check.payload(bytes.data(), bytes.size());
    check.verify_digest();
  } catch (const io::BinaryError&) {
    fail("checksum mismatch in " + what + " " + path.string());
  }
  std::istringstream in(std::move(bytes));
  io::BinaryReader r(in);
  try {
    auto parsed = parse(r, size - 8);
    if (in.peek() != std::char_traits<char>::eof())
      fail("trailing bytes in " + what + " " + path.string());
    return parsed;
  } catch (const io::BinaryError&) {
    fail("truncated " + what + " " + path.string());
  }
}

/// Reads and checks an 8-byte magic plus a u32 format version.
void expect_header(io::BinaryReader& r, const char (&magic)[8], std::uint32_t version,
                   const std::string& what) {
  char found[8];
  r.raw(found, sizeof(found));
  if (std::memcmp(found, magic, sizeof(found)) != 0) fail("bad magic in " + what);
  if (r.u32() != version) fail("unsupported format in " + what);
}

struct Manifest {
  std::uint32_t shards = 0;
  std::uint64_t initial_roles = 0;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t engine_version = 0;
  std::uint64_t audits = 0;
  std::uint64_t num_users = 0;
  std::uint64_t num_roles = 0;
  std::uint64_t num_perms = 0;
  std::uint64_t coord_records = 0;
  std::vector<std::uint64_t> shard_records;
};

void write_manifest(const fs::path& dir, const Manifest& m) {
  write_file_atomic(manifest_path(dir), [&](std::ostream& out) {
    io::BinaryWriter w(out);
    w.payload(kManifestMagic, sizeof(kManifestMagic));
    w.u32(kManifestFormatVersion);
    w.u32(m.shards);
    for (const std::uint64_t v : {m.initial_roles, m.checkpoint_id, m.engine_version, m.audits,
                                  m.num_users, m.num_roles, m.num_perms, m.coord_records})
      w.u64(v);
    for (const std::uint64_t n : m.shard_records) w.u64(n);
    w.finish();
  });
}

[[nodiscard]] Manifest read_manifest(const fs::path& dir) {
  const fs::path path = manifest_path(dir);
  if (!fs::is_regular_file(path)) fail("no manifest in " + dir.string());
  const std::string what = "manifest " + path.string();
  return read_checked(path, "manifest", [&](io::BinaryReader& r, std::size_t) {
    expect_header(r, kManifestMagic, kManifestFormatVersion, what);
    Manifest m;
    m.shards = r.u32();
    if (m.shards == 0) fail("manifest names zero shards in " + path.string());
    for (std::uint64_t* field : {&m.initial_roles, &m.checkpoint_id, &m.engine_version, &m.audits,
                                 &m.num_users, &m.num_roles, &m.num_perms, &m.coord_records})
      *field = r.u64();
    for (std::uint32_t s = 0; s < m.shards; ++s) m.shard_records.push_back(r.u64());
    return m;
  });
}

struct Names {
  std::vector<std::string> users;
  std::vector<std::string> roles;
  std::vector<std::string> perms;
};

void write_names(const fs::path& path, const core::ShardedEngine& engine) {
  write_file_atomic(path, [&](std::ostream& out) {
    io::BinaryWriter w(out);
    w.payload(kNamesMagic, sizeof(kNamesMagic));
    w.u32(kNamesFormatVersion);
    w.u32(0);  // reserved
    w.u64(engine.num_users());
    w.u64(engine.num_roles());
    w.u64(engine.num_permissions());
    for (const auto names : {engine.user_names(), engine.role_names(), engine.permission_names()}) {
      for (const std::string& name : names) {
        w.u64(name.size());
        w.payload(name.data(), name.size());
      }
    }
    w.finish();
  });
}

[[nodiscard]] Names read_names(const fs::path& path) {
  const std::string what = "names file " + path.string();
  return read_checked(path, "names file", [&](io::BinaryReader& r, std::size_t limit) {
    expect_header(r, kNamesMagic, kNamesFormatVersion, what);
    (void)r.u32();  // reserved
    const std::uint64_t nu = r.u64();
    const std::uint64_t nr = r.u64();
    const std::uint64_t np = r.u64();
    const auto name = [&] {
      const std::uint64_t length = r.u64();
      if (length > limit) fail("truncated " + what);
      std::string text(length, '\0');
      r.payload(text.data(), length);
      return text;
    };
    // Each name costs at least its 8-byte length, which bounds the reserves.
    Names names;
    names.users.reserve(std::min<std::uint64_t>(nu, limit / 8));
    names.roles.reserve(std::min<std::uint64_t>(nr, limit / 8));
    names.perms.reserve(std::min<std::uint64_t>(np, limit / 8));
    for (std::uint64_t i = 0; i < nu; ++i) names.users.push_back(name());
    for (std::uint64_t i = 0; i < nr; ++i) names.roles.push_back(name());
    for (std::uint64_t i = 0; i < np; ++i) names.perms.push_back(name());
    return names;
  });
}

// ---------------------------------------------------------- record grammar --

template <typename Number>
[[nodiscard]] bool parse_number(std::string_view text, Number* out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// A coordinator intern record `<tag>,<name>`: its tag and the engine call
/// that interns the name.
struct InternKind {
  std::string_view tag;
  core::Id (core::ShardedEngine::*add)(std::string_view);
};
constexpr InternKind kInternUser{"nu", &core::ShardedEngine::add_user};
constexpr InternKind kInternRole{"nr", &core::ShardedEngine::add_role};
constexpr InternKind kInternPerm{"np", &core::ShardedEngine::add_permission};

/// The intern kind of a coordinator record; nullptr for any other record.
[[nodiscard]] const InternKind* intern_kind(std::string_view payload) {
  if (payload.size() < 3 || payload[2] != ',') return nullptr;
  for (const InternKind* kind : {&kInternUser, &kInternRole, &kInternPerm}) {
    if (payload.substr(0, 2) == kind->tag) return kind;
  }
  return nullptr;
}

[[nodiscard]] std::size_t name_count(const core::ShardedEngine& engine) {
  return engine.num_users() + engine.num_roles() + engine.num_permissions();
}

/// `c,<n0>,...,<nS-1>` — exactly `shards` absolute per-shard record counts.
[[nodiscard]] std::vector<std::uint64_t> parse_commit_marker(std::string_view payload,
                                                             std::size_t shards) {
  std::vector<std::uint64_t> cuts;
  cuts.reserve(shards);
  std::string_view rest = payload.substr(2);  // past "c,"
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view field = rest.substr(0, comma);
    std::uint64_t value = 0;
    if (!parse_number(field, &value)) fail("corrupt commit marker: " + std::string(payload));
    cuts.push_back(value);
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (cuts.size() != shards) {
    fail("commit marker names " + std::to_string(cuts.size()) + " shards, store has " +
         std::to_string(shards));
  }
  return cuts;
}

struct EdgeRecord {
  enum class Op { kAssignUser, kRevokeUser, kGrantPermission, kRevokePermission } op;
  core::Id role = 0;
  core::Id entity = 0;
};

[[nodiscard]] EdgeRecord parse_edge_record(std::string_view payload) {
  EdgeRecord rec;
  if (payload.size() < 3 || payload[2] != ',') fail("corrupt edge record: " + std::string(payload));
  const std::string_view op = payload.substr(0, 2);
  if (op == "au") {
    rec.op = EdgeRecord::Op::kAssignUser;
  } else if (op == "ru") {
    rec.op = EdgeRecord::Op::kRevokeUser;
  } else if (op == "gp") {
    rec.op = EdgeRecord::Op::kGrantPermission;
  } else if (op == "rp") {
    rec.op = EdgeRecord::Op::kRevokePermission;
  } else {
    fail("unknown edge record: " + std::string(payload));
  }
  const std::string_view rest = payload.substr(3);
  const std::size_t comma = rest.find(',');
  if (comma == std::string_view::npos || !parse_number(rest.substr(0, comma), &rec.role) ||
      !parse_number(rest.substr(comma + 1), &rec.entity)) {
    fail("corrupt edge record: " + std::string(payload));
  }
  return rec;
}

// ---------------------------------------------------------- log truncation --

/// Drops records at/after `cut`: deletes whole segments past the cut point
/// and resizes the segment holding it. The records were part of batches
/// whose commit never became durable.
void truncate_uncommitted(RecoveredLog& log, std::uint64_t cut, ShardedRecoveryInfo& info) {
  if (log.end <= cut) return;
  const std::size_t i = cut - log.base;
  const std::size_t keep = log.records[i].segment;
  const std::uint64_t offset = log.records[i].offset;
  for (std::size_t s = keep + 1; s < log.segments.size(); ++s) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(log.segments[s], ec);
    if (!ec) info.truncated_bytes += size;
    fs::remove(log.segments[s], ec);
    if (ec)
      fail("cannot drop uncommitted segment " + log.segments[s].string() + ": " + ec.message());
  }
  const fs::path& segment = log.segments[keep];
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(segment, ec);
  if (!ec) fs::resize_file(segment, offset, ec);
  if (ec) fail("cannot truncate uncommitted tail of " + segment.string() + ": " + ec.message());
  info.truncated_bytes += size - offset;
  info.discarded_records += log.end - cut;
  log.end = cut;
  log.records.resize(i);
  log.segments.resize(keep + 1);
  log.end_offset = offset;
}

// ------------------------------------------------------------------ replay --

void replay_intern(core::ShardedEngine& engine, std::string_view payload,
                   ShardedRecoveryInfo& info) {
  const InternKind* kind = intern_kind(payload);
  if (kind == nullptr) fail("unknown coordinator record: " + std::string(payload));
  const std::size_t before = name_count(engine);
  (void)(engine.*kind->add)(payload.substr(3));
  // An intern record was only written when the name was new; a collision
  // means the log and checkpoint disagree about interning history.
  if (name_count(engine) != before + 1) fail("intern replay collision: " + std::string(payload));
  ++info.replayed_interns;
}

void replay_edge(core::ShardedEngine& engine, std::string_view payload,
                 ShardedRecoveryInfo& info) {
  const EdgeRecord rec = parse_edge_record(payload);
  try {
    switch (rec.op) {
      case EdgeRecord::Op::kAssignUser:
        engine.assign_user(rec.role, rec.entity);
        break;
      case EdgeRecord::Op::kRevokeUser:
        engine.revoke_user(rec.role, rec.entity);
        break;
      case EdgeRecord::Op::kGrantPermission:
        engine.grant_permission(rec.role, rec.entity);
        break;
      case EdgeRecord::Op::kRevokePermission:
        engine.revoke_permission(rec.role, rec.entity);
        break;
    }
  } catch (const std::out_of_range&) {
    fail("edge record references an id the store never interned: " + std::string(payload));
  }
  ++info.replayed_edges;
}

}  // namespace

// ----------------------------------------------------------- construction --

ShardedEngineStore::ShardedEngineStore(fs::path dir, StoreOptions store_options,
                                       std::size_t shards)
    : dir_(std::move(dir)), coord_(dir_ / "coord", store_options.fsync, kWalSegmentBytes) {
  shard_wals_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shard_wals_.emplace_back(dir_ / shard_dir_name(s), store_options.fsync, kWalSegmentBytes);
}

bool ShardedEngineStore::is_sharded_store(const fs::path& dir) {
  std::error_code ec;
  return fs::is_regular_file(manifest_path(dir), ec);
}

ShardedEngineStore ShardedEngineStore::create(const fs::path& dir,
                                              const core::RbacDataset& dataset,
                                              std::size_t shards,
                                              const core::AuditOptions& options,
                                              StoreOptions store_options) {
  if (shards == 0) fail("shards must be >= 1");
  create_store_dir(dir);
  create_store_dir(dir / "coord");
  for (std::size_t s = 0; s < shards; ++s) create_store_dir(dir / shard_dir_name(s));

  ShardedEngineStore store(dir, store_options, shards);
  store.engine_ = std::make_unique<core::ShardedEngine>(dataset, shards, options);
  store.write_checkpoint_files(0);
  store.checkpoint_id_ = 0;
  store.recovery_.checkpoint_id = 0;
  store.coord_.start(0, std::nullopt, 0);
  for (Wal& wal : store.shard_wals_) wal.start(0, std::nullopt, 0);
  return store;
}

ShardedEngineStore ShardedEngineStore::open(const fs::path& dir,
                                            const core::AuditOptions& options,
                                            StoreOptions store_options) {
  if (!fs::is_directory(dir)) fail("no such directory " + dir.string());
  const Manifest manifest = read_manifest(dir);
  ShardedEngineStore store(dir, store_options, manifest.shards);
  store.checkpoint_id_ = manifest.checkpoint_id;
  ShardedRecoveryInfo& info = store.recovery_;
  info.checkpoint_id = manifest.checkpoint_id;
  info.manifest_coord_records = manifest.coord_records;

  // 1. Checkpoint image: names + one mmap'd body per shard, mapped only
  // while the restore constructor validates and copies their rows.
  Names names = read_names(names_path(dir, manifest.checkpoint_id));
  if (names.users.size() != manifest.num_users || names.roles.size() != manifest.num_roles ||
      names.perms.size() != manifest.num_perms) {
    fail("names file does not match the manifest's entity counts");
  }
  {
    std::vector<MmapBody> bodies;
    std::vector<core::ShardedEngine::ShardImage> images;
    bodies.reserve(manifest.shards);
    images.reserve(manifest.shards);
    for (std::size_t s = 0; s < manifest.shards; ++s) {
      const MmapBody& mapped = bodies.emplace_back(body_path(dir, s, manifest.checkpoint_id));
      images.push_back({mapped.roles(), mapped.users(), mapped.perms()});
    }
    try {
      store.engine_ = std::make_unique<core::ShardedEngine>(
          std::move(names.users), std::move(names.roles), std::move(names.perms),
          std::move(images), manifest.initial_roles, manifest.engine_version, manifest.audits,
          options);
    } catch (const std::invalid_argument& e) {
      fail("checkpoint does not restore: " + std::string(e.what()));
    }
  }

  // 2. Surviving WAL tails of all S+1 streams.
  RecoveredLog coord = recover_log(dir / "coord", manifest.coord_records, info);
  std::vector<RecoveredLog> shards;
  shards.reserve(manifest.shards);
  for (std::size_t s = 0; s < manifest.shards; ++s)
    shards.push_back(recover_log(dir / shard_dir_name(s), manifest.shard_records[s], info));

  // 3. Walk the coordinator log marker by marker. A batch is committed iff
  // its marker survives and every shard record the marker claims survives
  // too; cuts are monotone, so the first unsatisfiable marker ends replay.
  std::vector<std::uint64_t> applied = manifest.shard_records;
  std::uint64_t coord_applied = manifest.coord_records;
  std::size_t pending_begin = 0;
  for (std::size_t i = 0; i < coord.records.size(); ++i) {
    const std::string& payload = coord.records[i].payload;
    if (payload.rfind("c,", 0) != 0) {
      if (intern_kind(payload) == nullptr) fail("unknown coordinator record: " + payload);
      continue;  // intern: applied when its batch's marker proves committed
    }
    const std::vector<std::uint64_t> cuts = parse_commit_marker(payload, manifest.shards);
    bool satisfiable = true;
    for (std::size_t s = 0; s < cuts.size(); ++s) {
      if (cuts[s] < applied[s]) fail("commit marker cut goes backwards: " + payload);
      if (cuts[s] != applied[s] && cuts[s] > shards[s].end) {
        satisfiable = false;  // shard records lost before their marker synced
        break;
      }
    }
    if (!satisfiable) break;
    for (std::size_t j = pending_begin; j < i; ++j) {
      replay_intern(*store.engine_, coord.records[j].payload, info);
    }
    for (std::size_t s = 0; s < cuts.size(); ++s) {
      for (std::uint64_t idx = applied[s]; idx < cuts[s]; ++idx) {
        replay_edge(*store.engine_, shards[s].records[idx - shards[s].base].payload, info);
      }
      applied[s] = cuts[s];
    }
    pending_begin = i + 1;
    coord_applied = coord.base + i + 1;
    ++info.commits_applied;
  }

  // 4. Drop uncommitted tails and reopen every stream for appending.
  truncate_uncommitted(coord, coord_applied, info);
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    truncate_uncommitted(shards[s], applied[s], info);
  }
  store.coord_.start(std::max(coord.end, coord_applied), coord);
  for (std::size_t s = 0; s < manifest.shards; ++s)
    store.shard_wals_[s].start(std::max(shards[s].end, applied[s]), shards[s]);
  return store;
}

// --------------------------------------------------------------- mutation --

void ShardedEngineStore::apply(const core::RbacDelta& delta) {
  core::ShardedEngine& engine = *engine_;
  std::vector<std::string> coord_records;
  std::vector<std::vector<std::string>> shard_records(shard_wals_.size());

  // The engine runs first so effectiveness (new name? effective edge?) is
  // decided once, by the engine itself; the captured records replay through
  // the same mutators, so recovery reaches the identical state and version.
  const auto intern = [&](const InternKind& kind, const std::string& name) {
    const std::size_t before = name_count(engine);
    const core::Id id = (engine.*kind.add)(name);
    if (name_count(engine) != before) coord_records.push_back(std::string(kind.tag) + "," + name);
    return id;
  };
  const auto route = [&](const char* op, core::Id role, core::Id entity) {
    shard_records[engine.owner_shard(role)].push_back(
        std::string(op) + "," + std::to_string(role) + "," + std::to_string(entity));
  };

  for (const core::Mutation& m : delta.mutations) {
    switch (m.kind) {
      case core::MutationKind::kAddUser:
        intern(kInternUser, m.entity);
        break;
      case core::MutationKind::kAddRole:
        intern(kInternRole, m.entity);
        break;
      case core::MutationKind::kAddPermission:
        intern(kInternPerm, m.entity);
        break;
      case core::MutationKind::kAssignUser: {
        const core::Id role = intern(kInternRole, m.role);
        const core::Id user = intern(kInternUser, m.entity);
        engine.assign_user(role, user);
        route("au", role, user);
        break;
      }
      case core::MutationKind::kGrantPermission: {
        const core::Id role = intern(kInternRole, m.role);
        const core::Id perm = intern(kInternPerm, m.entity);
        engine.grant_permission(role, perm);
        route("gp", role, perm);
        break;
      }
      case core::MutationKind::kRevokeUser: {
        const std::optional<core::Id> role = engine.find_role(m.role);
        const std::optional<core::Id> user = engine.find_user(m.entity);
        if (role && user) {
          engine.revoke_user(*role, *user);
          route("ru", *role, *user);
        }
        break;
      }
      case core::MutationKind::kRevokePermission: {
        const std::optional<core::Id> role = engine.find_role(m.role);
        const std::optional<core::Id> perm = engine.find_permission(m.entity);
        if (role && perm) {
          engine.revoke_permission(*role, *perm);
          route("rp", *role, *perm);
        }
        break;
      }
    }
  }

  bool any = !coord_records.empty();
  for (const auto& records : shard_records) any = any || !records.empty();
  if (!any) return;  // nothing effective: no durable state to record

  // Shard streams first, marker last: a durable marker implies its shard
  // records are durable too (append_raw_batch syncs under kEveryBatch).
  for (std::size_t s = 0; s < shard_records.size(); ++s) {
    if (!shard_records[s].empty()) shard_wals_[s].append_raw_batch(shard_records[s]);
  }
  std::string marker = "c";
  for (const Wal& wal : shard_wals_) marker.append(",").append(std::to_string(wal.next_record()));
  coord_records.push_back(std::move(marker));
  coord_.append_raw_batch(coord_records);
}

// ------------------------------------------------------------- checkpoint --

void ShardedEngineStore::write_checkpoint_files(std::uint64_t id) {
  for (std::size_t s = 0; s < shard_wals_.size(); ++s) {
    const core::ShardedEngine::ShardExport exported = engine_->export_shard(s);
    write_body_file(body_path(dir_, s, id), exported.roles,
                    {exported.users_row_ptr, exported.users_cols, engine_->num_users()},
                    {exported.perms_row_ptr, exported.perms_cols, engine_->num_permissions()});
  }
  write_names(names_path(dir_, id), *engine_);

  Manifest manifest;
  manifest.shards = static_cast<std::uint32_t>(shard_wals_.size());
  manifest.initial_roles = engine_->initial_roles();
  manifest.checkpoint_id = id;
  manifest.engine_version = engine_->version();
  manifest.audits = engine_->audits();
  manifest.num_users = engine_->num_users();
  manifest.num_roles = engine_->num_roles();
  manifest.num_perms = engine_->num_permissions();
  manifest.coord_records = coord_.next_record();
  manifest.shard_records.reserve(shard_wals_.size());
  for (const Wal& wal : shard_wals_) manifest.shard_records.push_back(wal.next_record());
  write_manifest(dir_, manifest);  // rename = the checkpoint's commit point
}

void ShardedEngineStore::prune_stale_checkpoints(std::uint64_t keep) {
  const auto prune = [&](const NumberedFiles& files, const fs::path& dir) {
    for (const fs::path& file : files.list(dir)) {
      std::error_code ec;
      if (files.number(file) != keep) fs::remove(file, ec);  // best effort: stale data only
    }
  };
  prune(kNamesFiles, dir_);
  for (std::size_t s = 0; s < shard_wals_.size(); ++s) prune(kBodyFiles, dir_ / shard_dir_name(s));
}

core::AuditReport ShardedEngineStore::reaudit() {
  engine_->set_publish_versions(true);
  return engine_->reaudit();
}

std::uint64_t ShardedEngineStore::checkpoint() {
  // Everything the manifest will claim as "in the log" must be durable
  // before the manifest that supersedes older checkpoints exists.
  for (Wal& wal : shard_wals_) wal.sync();
  coord_.sync();
  const std::uint64_t id = checkpoint_id_ + 1;
  write_checkpoint_files(id);
  checkpoint_id_ = id;

  coord_.rotate();
  coord_.prune_below(coord_.next_record());
  for (Wal& wal : shard_wals_) {
    wal.rotate();
    wal.prune_below(wal.next_record());
  }
  prune_stale_checkpoints(id);
  return id;
}

}  // namespace rolediet::store
