#include "core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cluster/metric.hpp"
#include "cluster/minhash.hpp"
#include "core/digest.hpp"
#include "core/methods/method_common.hpp"
#include "linalg/row_store.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace rolediet::core {

namespace {

/// Hashed column-bucket signature for the exact-method exchange: one
/// u32-sized bucket id per distinct column instead of the row itself. The
/// full 32-bit width matters at scale — at ~10^5 distinct columns a 16-bit
/// bucket space would already generate tens of thousands of birthday-collision
/// candidates (collisions only add verify work, never wrong groups, but the
/// cross-verification pass would stop being small against shard-local work).
[[nodiscard]] std::uint32_t column_bucket(std::uint32_t col) noexcept {
  return static_cast<std::uint32_t>(util::mix64(col));
}

/// Interns a restore image's names in id order; a repeated name means the
/// image was not written by an engine.
[[nodiscard]] NameTable restored_names(std::vector<std::string> names) {
  NameTable table;
  table.reserve(names.size());
  for (std::string& name : names) {
    if (!table.intern(std::move(name)).second) {
      throw std::invalid_argument("ShardedEngine: duplicate entity names in restore image");
    }
  }
  return table;
}

}  // namespace

// ------------------------------------------------------------ construction --

ShardedEngine::ShardedEngine(const RbacDataset& snapshot, std::size_t shards,
                             AuditOptions options)
    : options_(options),
      user_names_(snapshot.user_table()),
      role_names_(snapshot.role_table()),
      perm_names_(snapshot.permission_table()) {
  validate_audit_options(options_);
  if (shards == 0) throw std::invalid_argument("ShardedEngine: shards must be >= 1");

  initial_roles_ = role_names_.size();
  shards_.resize(shards);
  user_degree_.assign(user_names_.size(), 0);
  perm_degree_.assign(perm_names_.size(), 0);
  owner_.reserve(initial_roles_);
  local_.reserve(initial_roles_);
  users_norm_.reserve(initial_roles_);
  perms_norm_.reserve(initial_roles_);

  for (Id gid = 0; gid < initial_roles_; ++gid) {
    register_role_storage(gid);
    auto& shard = shards_[owner_[gid]];
    auto& users = shard.users.overlay[local_[gid]];
    auto& perms = shard.perms.overlay[local_[gid]];
    const auto urow = snapshot.users_of_role(gid);
    const auto prow = snapshot.permissions_of_role(gid);
    users.assign(urow.begin(), urow.end());
    perms.assign(prow.begin(), prow.end());
    users_norm_[gid] = static_cast<std::uint32_t>(users.size());
    perms_norm_[gid] = static_cast<std::uint32_t>(perms.size());
    total_assignments_ += users.size();
    total_grants_ += perms.size();
    for (Id u : users) ++user_degree_[u];
    for (Id p : perms) ++perm_degree_[p];
  }
}

ShardedEngine::ShardedEngine(std::vector<std::string> user_names,
                             std::vector<std::string> role_names,
                             std::vector<std::string> perm_names,
                             std::vector<ShardImage> images, std::size_t initial_roles,
                             std::uint64_t version, std::uint64_t audits, AuditOptions options)
    : options_(options),
      initial_roles_(initial_roles),
      user_names_(restored_names(std::move(user_names))),
      role_names_(restored_names(std::move(role_names))),
      perm_names_(restored_names(std::move(perm_names))),
      version_(version),
      audits_(audits) {
  validate_audit_options(options_);
  if (images.empty()) throw std::invalid_argument("ShardedEngine: no shard images");
  shards_.resize(images.size());

  const std::size_t num_roles = role_names_.size();
  owner_.assign(num_roles, 0);
  local_.assign(num_roles, 0);
  std::vector<std::uint8_t> seen(num_roles, 0);
  for (std::size_t s = 0; s < images.size(); ++s) {
    ShardImage& img = images[s];
    if (img.users.rows() > img.roles.size() || img.perms.rows() > img.roles.size()) {
      throw std::invalid_argument("ShardedEngine: shard body has more rows than roles");
    }
    Id prev = 0;
    for (std::size_t i = 0; i < img.roles.size(); ++i) {
      const Id gid = img.roles[i];
      if (gid >= num_roles || seen[gid] || (i > 0 && gid <= prev) ||
          owner_of_new_role(gid) != s) {
        throw std::invalid_argument("ShardedEngine: shard image is not the expected partition");
      }
      seen[gid] = 1;
      prev = gid;
      owner_[gid] = static_cast<std::uint32_t>(s);
      local_[gid] = static_cast<std::uint32_t>(i);
    }
    Shard& shard = shards_[s];
    shard.roles = std::move(img.roles);
    shard.users.base = img.users;
    shard.perms.base = img.perms;
    shard.users.overlay.resize(shard.roles.size());
    shard.users.touched.assign(shard.roles.size(), 0);
    shard.perms.overlay.resize(shard.roles.size());
    shard.perms.touched.assign(shard.roles.size(), 0);
  }
  for (std::size_t r = 0; r < num_roles; ++r) {
    if (!seen[r]) throw std::invalid_argument("ShardedEngine: role missing from every shard");
  }

  user_degree_.assign(user_names_.size(), 0);
  perm_degree_.assign(perm_names_.size(), 0);
  users_norm_.assign(num_roles, 0);
  perms_norm_.assign(num_roles, 0);
  for (Id gid = 0; gid < num_roles; ++gid) {
    const auto urow = row(AxisKind::kUsers, gid);
    const auto prow = row(AxisKind::kPerms, gid);
    for (Id u : urow) {
      if (u >= user_degree_.size()) {
        throw std::invalid_argument("ShardedEngine: user id out of range in shard body");
      }
      ++user_degree_[u];
    }
    for (Id p : prow) {
      if (p >= perm_degree_.size()) {
        throw std::invalid_argument("ShardedEngine: permission id out of range in shard body");
      }
      ++perm_degree_[p];
    }
    users_norm_[gid] = static_cast<std::uint32_t>(urow.size());
    perms_norm_[gid] = static_cast<std::uint32_t>(prow.size());
    total_assignments_ += urow.size();
    total_grants_ += prow.size();
  }
}

std::size_t ShardedEngine::owner_of_new_role(Id gid) const noexcept {
  const std::size_t shards = shards_.size();
  if (gid >= initial_roles_ || initial_roles_ == 0) {
    return (gid - initial_roles_) % shards;
  }
  // Contiguous range partition of the construction-time roles: shard s owns
  // [s*N/S, (s+1)*N/S).
  std::size_t s = (static_cast<std::size_t>(gid) * shards) / initial_roles_;
  if (s >= shards) s = shards - 1;
  while (s > 0 && gid < (s * initial_roles_) / shards) --s;
  while (s + 1 < shards && gid >= ((s + 1) * initial_roles_) / shards) ++s;
  return s;
}

void ShardedEngine::register_role_storage(Id gid) {
  const std::size_t s = owner_of_new_role(gid);
  Shard& shard = shards_[s];
  owner_.push_back(static_cast<std::uint32_t>(s));
  local_.push_back(static_cast<std::uint32_t>(shard.roles.size()));
  shard.roles.push_back(gid);
  shard.users.overlay.emplace_back();
  shard.users.touched.push_back(1);  // no base row: the (empty) overlay is live
  shard.perms.overlay.emplace_back();
  shard.perms.touched.push_back(1);
  users_norm_.push_back(0);
  perms_norm_.push_back(0);
}

// ------------------------------------------------------------- row storage --

std::span<const Id> ShardedEngine::row(AxisKind axis, Id role) const {
  const Shard& shard = shards_[owner_[role]];
  const ShardAxis& ax = axis == AxisKind::kUsers ? shard.users : shard.perms;
  const std::size_t l = local_[role];
  if (ax.touched[l]) return ax.overlay[l];
  if (l < ax.base.rows()) return ax.base.row(l);
  return {};
}

std::vector<Id>& ShardedEngine::mutable_row(AxisKind axis, Id role) {
  Shard& shard = shards_[owner_[role]];
  ShardAxis& ax = axis == AxisKind::kUsers ? shard.users : shard.perms;
  const std::size_t l = local_[role];
  if (!ax.touched[l]) {
    if (l < ax.base.rows()) {
      const auto base_row = ax.base.row(l);
      ax.overlay[l].assign(base_row.begin(), base_row.end());
    }
    ax.touched[l] = 1;
  }
  return ax.overlay[l];
}

bool ShardedEngine::mutate_edge(AxisKind axis, Id role, Id entity, bool add) {
  {
    const auto current = row(axis, role);
    const bool present =
        std::binary_search(current.begin(), current.end(), entity);
    if (add == present) return false;  // already as requested
  }
  std::vector<Id>& cells = mutable_row(axis, role);
  const auto it = std::lower_bound(cells.begin(), cells.end(), entity);
  if (add) {
    cells.insert(it, entity);
  } else {
    cells.erase(it);
  }
  auto& norm = (axis == AxisKind::kUsers ? users_norm_ : perms_norm_)[role];
  auto& degree = (axis == AxisKind::kUsers ? user_degree_ : perm_degree_)[entity];
  auto& total = axis == AxisKind::kUsers ? total_assignments_ : total_grants_;
  if (add) {
    ++norm;
    ++degree;
    ++total;
  } else {
    --norm;
    --degree;
    --total;
  }
  return true;
}

// --------------------------------------------------------------- mutations --

Id ShardedEngine::add_user(std::string name) {
  const auto [id, added] = user_names_.intern(std::move(name));
  if (added) {
    user_degree_.push_back(0);
    ++version_;
  }
  return id;
}

Id ShardedEngine::add_permission(std::string name) {
  const auto [id, added] = perm_names_.intern(std::move(name));
  if (added) {
    perm_degree_.push_back(0);
    ++version_;
  }
  return id;
}

Id ShardedEngine::add_role(std::string name) {
  const auto [id, added] = role_names_.intern(std::move(name));
  if (added) {
    register_role_storage(id);
    ++version_;
  }
  return id;
}

bool ShardedEngine::assign_user(Id role, Id user) {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  if (user >= user_names_.size()) throw std::out_of_range("ShardedEngine: unknown user id");
  const bool changed = mutate_edge(AxisKind::kUsers, role, user, /*add=*/true);
  if (changed) ++version_;
  return changed;
}

bool ShardedEngine::revoke_user(Id role, Id user) {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  if (user >= user_names_.size()) throw std::out_of_range("ShardedEngine: unknown user id");
  const bool changed = mutate_edge(AxisKind::kUsers, role, user, /*add=*/false);
  if (changed) ++version_;
  return changed;
}

bool ShardedEngine::grant_permission(Id role, Id perm) {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  if (perm >= perm_names_.size()) {
    throw std::out_of_range("ShardedEngine: unknown permission id");
  }
  const bool changed = mutate_edge(AxisKind::kPerms, role, perm, /*add=*/true);
  if (changed) ++version_;
  return changed;
}

bool ShardedEngine::revoke_permission(Id role, Id perm) {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  if (perm >= perm_names_.size()) {
    throw std::out_of_range("ShardedEngine: unknown permission id");
  }
  const bool changed = mutate_edge(AxisKind::kPerms, role, perm, /*add=*/false);
  if (changed) ++version_;
  return changed;
}

void ShardedEngine::apply(const RbacDelta& delta) {
  // Mirrors AuditEngine::apply record for record, so sharded and unsharded
  // engines fed the same delta stream land on the same ids and version.
  for (const Mutation& m : delta.mutations) {
    switch (m.kind) {
      case MutationKind::kAddUser:
        add_user(m.entity);
        break;
      case MutationKind::kAddRole:
        add_role(m.entity);
        break;
      case MutationKind::kAddPermission:
        add_permission(m.entity);
        break;
      case MutationKind::kAssignUser:
        assign_user(add_role(m.role), add_user(m.entity));
        break;
      case MutationKind::kGrantPermission:
        grant_permission(add_role(m.role), add_permission(m.entity));
        break;
      case MutationKind::kRevokeUser: {
        const std::optional<Id> role = find_role(m.role);
        const std::optional<Id> user = find_user(m.entity);
        if (role && user) revoke_user(*role, *user);
        break;
      }
      case MutationKind::kRevokePermission: {
        const std::optional<Id> role = find_role(m.role);
        const std::optional<Id> perm = find_permission(m.entity);
        if (role && perm) revoke_permission(*role, *perm);
        break;
      }
    }
  }
}

// ----------------------------------------------------------------- lookups --

std::span<const Id> ShardedEngine::users_of_role(Id role) const {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  return row(AxisKind::kUsers, role);
}

std::span<const Id> ShardedEngine::permissions_of_role(Id role) const {
  if (role >= role_names_.size()) throw std::out_of_range("ShardedEngine: unknown role id");
  return row(AxisKind::kPerms, role);
}

linalg::CsrMatrix ShardedEngine::compile(AxisKind axis) const {
  std::vector<std::size_t> row_ptr{0};
  row_ptr.reserve(role_names_.size() + 1);
  std::vector<std::uint32_t> cols_idx;
  cols_idx.reserve(axis == AxisKind::kUsers ? total_assignments_ : total_grants_);
  for (Id gid = 0; gid < role_names_.size(); ++gid) {
    const auto cells = row(axis, gid);
    cols_idx.insert(cols_idx.end(), cells.begin(), cells.end());
    row_ptr.push_back(cols_idx.size());
  }
  return linalg::CsrMatrix::from_csr(
      axis == AxisKind::kUsers ? user_names_.size() : perm_names_.size(), std::move(row_ptr),
      std::move(cols_idx));
}

RbacDataset ShardedEngine::snapshot() const {
  return RbacDataset::from_compiled(user_names_, role_names_, perm_names_,
                                    compile(AxisKind::kUsers), compile(AxisKind::kPerms));
}

ShardedEngine::ShardExport ShardedEngine::export_shard(std::size_t s) const {
  const Shard& shard = shards_.at(s);
  ShardExport out;
  out.roles = shard.roles;
  out.users_row_ptr.reserve(shard.roles.size() + 1);
  out.perms_row_ptr.reserve(shard.roles.size() + 1);
  out.users_row_ptr.push_back(0);
  out.perms_row_ptr.push_back(0);
  for (const Id gid : shard.roles) {
    const auto urow = row(AxisKind::kUsers, gid);
    out.users_cols.insert(out.users_cols.end(), urow.begin(), urow.end());
    out.users_row_ptr.push_back(out.users_cols.size());
    const auto prow = row(AxisKind::kPerms, gid);
    out.perms_cols.insert(out.perms_cols.end(), prow.begin(), prow.end());
    out.perms_row_ptr.push_back(out.perms_cols.size());
  }
  return out;
}

// ---------------------------------------------------------------- findings --

std::uint64_t ShardedEngine::content_digest() const {
  // Byte-for-byte the digest_of() stream in core/digest.cpp, fed from the
  // sharded row storage instead of an IncrementalAuditor.
  ContentDigest d;
  d.u64(user_names_.size());
  d.u64(role_names_.size());
  d.u64(perm_names_.size());
  for (const std::string& name : user_names_.names()) d.str(name);
  for (const std::string& name : role_names_.names()) d.str(name);
  for (const std::string& name : perm_names_.names()) d.str(name);
  for (Id gid = 0; gid < role_names_.size(); ++gid) {
    const auto users = row(AxisKind::kUsers, gid);
    d.u64(users.size());
    for (Id u : users) d.u64(u);
    const auto perms = row(AxisKind::kPerms, gid);
    d.u64(perms.size());
    for (Id p : perms) d.u64(p);
  }
  return d.value();
}

StructuralFindings ShardedEngine::structural() const {
  StructuralFindings out;
  for (Id u = 0; u < user_degree_.size(); ++u) {
    if (user_degree_[u] == 0) out.standalone_users.push_back(u);
  }
  for (Id p = 0; p < perm_degree_.size(); ++p) {
    if (perm_degree_[p] == 0) out.standalone_permissions.push_back(p);
  }
  for (Id r = 0; r < role_names_.size(); ++r) {
    const std::uint32_t users = users_norm_[r];
    const std::uint32_t perms = perms_norm_[r];
    if (users == 0 && perms == 0) {
      out.standalone_roles.push_back(r);
    } else if (users == 0) {
      out.roles_without_users.push_back(r);
    } else if (perms == 0) {
      out.roles_without_permissions.push_back(r);
    }
    if (users == 1) out.single_user_roles.push_back(r);
    if (perms == 1) out.single_permission_roles.push_back(r);
  }
  return out;
}

RoleGroups ShardedEngine::equal_groups(AxisKind axis, FinderWorkStats* work) const {
  // The digest-bucket / representative-class partition IncrementalAuditor
  // maintains, recomputed across all shards. Non-empty rows only.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  const auto& norm = norms(axis);
  for (Id gid = 0; gid < role_names_.size(); ++gid) {
    if (norm[gid] == 0) continue;
    buckets[linalg::csr_row_digest(row(axis, gid))].push_back(gid);
  }
  RoleGroups out;
  for (const auto& [digest, members] : buckets) {
    if (members.size() < 2) continue;
    if (work != nullptr) work->rows_processed += members.size();
    std::vector<std::vector<std::size_t>> classes;
    for (const std::size_t gid : members) {
      bool placed = false;
      for (auto& cls : classes) {
        if (work != nullptr) ++work->pairs_evaluated;
        if (linalg::csr_rows_equal(row(axis, static_cast<Id>(cls.front())),
                                   row(axis, static_cast<Id>(gid)))) {
          cls.push_back(gid);
          placed = true;
          break;
        }
      }
      if (placed && work != nullptr) {
        ++work->pairs_matched;
        ++work->merges;
      }
      if (!placed) classes.push_back({gid});
    }
    for (auto& cls : classes) {
      if (cls.size() >= 2) out.groups.push_back(std::move(cls));
    }
  }
  out.normalize();
  return out;
}

RoleGroups ShardedEngine::all_nonempty_group(AxisKind axis) const {
  // Jaccard ceiling for the exhaustive methods: every non-empty pair is
  // within threshold, so the similar relation has one giant component.
  std::vector<std::size_t> members;
  const auto& norm = norms(axis);
  for (Id gid = 0; gid < role_names_.size(); ++gid) {
    if (norm[gid] > 0) members.push_back(gid);
  }
  RoleGroups out;
  if (members.size() >= 2) out.groups.push_back(std::move(members));
  out.normalize();
  return out;
}

std::size_t ShardedEngine::similar_threshold_scaled() const {
  if (options_.similarity_mode == SimilarityMode::kJaccard) {
    return jaccard_threshold(options_.jaccard_dissimilarity);
  }
  return options_.similarity_threshold;
}

RoleGroups ShardedEngine::sharded_similar(AxisKind axis, std::size_t threshold, bool jaccard,
                                          const util::ExecutionContext& ctx,
                                          FinderWorkStats& work, ShardSimilarStats& stats) {
  const std::size_t num_roles = role_names_.size();
  const std::size_t axis_cols =
      axis == AxisKind::kUsers ? user_names_.size() : perm_names_.size();
  const auto& norm = norms(axis);
  cluster::UnionFind forest(num_roles);
  std::size_t rows_processed = 0;
  std::size_t pairs_evaluated = 0;
  std::size_t pairs_matched = 0;

  GroupFinderOptions finder_options;
  finder_options.threads = options_.threads;
  finder_options.backend = options_.backend;
  const std::unique_ptr<GroupFinder> finder =
      make_group_finder(options_.method, finder_options);

  // ---- stage 1: shard-local pair pipelines --------------------------------
  // Each shard's transient matrix keeps GLOBAL column ids, so distances,
  // digests, and MinHash signatures computed inside a shard are identical to
  // what the unsharded engine computes for the same rows.
  std::vector<linalg::CsrMatrix> matrices(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (ctx.expired()) break;
    const Shard& shard = shards_[s];
    std::vector<std::size_t> row_ptr;
    std::vector<Id> cols;
    row_ptr.reserve(shard.roles.size() + 1);
    row_ptr.push_back(0);
    for (const Id gid : shard.roles) {
      const auto r = row(axis, gid);
      cols.insert(cols.end(), r.begin(), r.end());
      row_ptr.push_back(cols.size());
    }
    matrices[s] = linalg::CsrMatrix::from_csr(axis_cols, std::move(row_ptr), std::move(cols));

    const RoleGroups local_groups =
        jaccard ? finder->find_similar_jaccard(matrices[s], threshold, ctx)
                : finder->find_similar(matrices[s], threshold, ctx);
    const FinderWorkStats shard_work = finder->last_work();
    rows_processed += shard_work.rows_processed;
    pairs_evaluated += shard_work.pairs_evaluated;
    pairs_matched += shard_work.pairs_matched;
    stats.local_pairs_evaluated.push_back(shard_work.pairs_evaluated);
    // Local groups are exactly the components of the matched relation
    // restricted to this shard; uniting each group's members reproduces that
    // connectivity in the global forest.
    for (const auto& group : local_groups.groups) {
      for (std::size_t i = 1; i < group.size(); ++i) {
        forest.unite(shard.roles[group.front()], shard.roles[group[i]]);
      }
    }
  }

  // ---- stage 2: signature exchange ----------------------------------------
  // Only compact signatures cross shard boundaries: MinHash band digests for
  // the LSH method (so the candidate set stays exactly the band-collision
  // set), hashed column buckets for the exhaustive methods (a superset of
  // "shares a column" — safe, because every candidate is exactly verified).
  std::vector<std::pair<Id, Id>> cross;
  if (!ctx.expired()) {
    if (options_.method == Method::kApproxMinhash) {
      cluster::MinHashParams params;  // the finder's defaults; content-only
      const cluster::MinHashSigner signer(params);
      std::vector<std::unordered_map<std::uint64_t, std::vector<Id>>> bands(params.bands);
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (matrices[s].rows() != shards_[s].roles.size()) continue;  // budget-cut shard
        const linalg::RowStore store(matrices[s]);
        for (std::size_t r = 0; r < shards_[s].roles.size(); ++r) {
          if (ctx.expired()) break;
          const std::vector<std::uint64_t> digests = signer.band_digests(store, r);
          stats.exchanged_signatures += digests.size();
          for (std::size_t band = 0; band < digests.size(); ++band) {
            bands[band][digests[band]].push_back(shards_[s].roles[r]);
          }
        }
      }
      for (const auto& band : bands) {
        for (const auto& [digest, members] : band) {
          for (std::size_t x = 0; x < members.size(); ++x) {
            for (std::size_t y = x + 1; y < members.size(); ++y) {
              if (owner_[members[x]] == owner_[members[y]]) continue;  // shard-local already
              cross.emplace_back(std::min(members[x], members[y]),
                                 std::max(members[x], members[y]));
            }
          }
        }
      }
    } else {
      std::unordered_map<std::uint32_t, std::vector<Id>> buckets;
      std::vector<std::uint32_t> scratch;
      for (Id gid = 0; gid < num_roles; ++gid) {
        if (ctx.expired()) break;
        if (norm[gid] == 0) continue;
        scratch.clear();
        for (const Id col : row(axis, gid)) scratch.push_back(column_bucket(col));
        std::sort(scratch.begin(), scratch.end());
        scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
        stats.exchanged_signatures += scratch.size();
        for (const std::uint32_t bucket : scratch) buckets[bucket].push_back(gid);
      }
      for (const auto& [bucket, members] : buckets) {
        for (std::size_t x = 0; x < members.size(); ++x) {
          for (std::size_t y = x + 1; y < members.size(); ++y) {
            if (owner_[members[x]] == owner_[members[y]]) continue;
            cross.emplace_back(std::min(members[x], members[y]),
                               std::max(members[x], members[y]));
          }
        }
      }
    }
    std::sort(cross.begin(), cross.end());
    cross.erase(std::unique(cross.begin(), cross.end()), cross.end());
  }
  stats.cross_candidates = cross.size();

  // ---- stage 3: exact verification of the gathered cross pairs ------------
  // Gather the candidate rows into one scratch matrix and score every pair
  // through the batch intersection kernels; the predicate is the same
  // integer formula the in-shard finders used.
  if (!cross.empty()) {
    std::vector<Id> involved;
    involved.reserve(cross.size() * 2);
    for (const auto& [a, b] : cross) {
      involved.push_back(a);
      involved.push_back(b);
    }
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()), involved.end());
    std::unordered_map<Id, std::size_t> slot;
    slot.reserve(involved.size());
    std::vector<std::size_t> row_ptr;
    std::vector<Id> cols;
    row_ptr.reserve(involved.size() + 1);
    row_ptr.push_back(0);
    for (const Id gid : involved) {
      slot.emplace(gid, slot.size());
      const auto r = row(axis, gid);
      cols.insert(cols.end(), r.begin(), r.end());
      row_ptr.push_back(cols.size());
    }
    const linalg::CsrMatrix gathered =
        linalg::CsrMatrix::from_csr(axis_cols, std::move(row_ptr), std::move(cols));
    const linalg::RowStore store(gathered);

    std::vector<std::pair<std::size_t, std::size_t>> block;
    std::vector<std::size_t> inter;
    for (std::size_t begin = 0; begin < cross.size(); begin += methods::kVerifyBlock) {
      if (ctx.expired()) break;
      const std::size_t end = std::min(begin + methods::kVerifyBlock, cross.size());
      block.clear();
      for (std::size_t i = begin; i < end; ++i) {
        block.emplace_back(slot.at(cross[i].first), slot.at(cross[i].second));
      }
      inter.assign(block.size(), 0);
      store.intersection_pairs(block, inter.data());
      for (std::size_t i = begin; i < end; ++i) {
        const auto [a, b] = cross[i];
        const std::size_t g = inter[i - begin];
        const std::size_t na = norm[a];
        const std::size_t nb = norm[b];
        const std::size_t d = jaccard ? cluster::jaccard_scaled_from_counts(na, nb, g)
                                      : na + nb - 2 * g;
        ++pairs_evaluated;
        if (d <= threshold) {
          ++pairs_matched;
          ++stats.cross_matched;
          forest.unite(a, b);
        }
      }
    }
  }

  // ---- stage 4: tiny-row norm sweep ---------------------------------------
  // Hamming only: every pair whose norms sum to <= threshold is within
  // distance regardless of overlap, and the batch finders unite all of them
  // (including zero-intersection pairs the column exchange cannot see). The
  // sweep is global, so cross-shard tiny pairs are covered too.
  if (!jaccard && threshold > 0 && !ctx.expired()) {
    std::vector<std::pair<std::uint32_t, Id>> tiny;
    for (Id gid = 0; gid < num_roles; ++gid) {
      if (norm[gid] >= 1 && norm[gid] < threshold) tiny.emplace_back(norm[gid], gid);
    }
    std::sort(tiny.begin(), tiny.end());
    for (std::size_t a = 0; a < tiny.size(); ++a) {
      for (std::size_t b = a + 1; b < tiny.size(); ++b) {
        if (static_cast<std::size_t>(tiny[a].first) + tiny[b].first > threshold) break;
        ++pairs_evaluated;
        ++pairs_matched;
        ++stats.tiny_pairs;
        forest.unite(tiny[a].second, tiny[b].second);
      }
    }
  }

  RoleGroups out;
  out.groups = forest.groups(2);
  out.normalize();
  work = {};
  work.rows_processed = rows_processed;
  work.pairs_evaluated = pairs_evaluated;
  work.pairs_matched = pairs_matched;
  work.merges = out.roles_in_groups() - out.group_count();
  work.merge_conflicts = pairs_matched >= work.merges ? pairs_matched - work.merges : 0;
  return out;
}

AuditReport ShardedEngine::reaudit() {
  const util::ExecutionContext ctx(options_.time_budget_s);
  AuditReport report;
  report.num_users = user_names_.size();
  report.num_roles = role_names_.size();
  report.num_permissions = perm_names_.size();
  report.similarity_threshold = options_.similarity_threshold;
  report.similarity_mode = options_.similarity_mode;
  report.jaccard_dissimilarity = options_.jaccard_dissimilarity;
  report.options = options_;
  report.engine_version = version_;
  report.dataset_digest = content_digest();

  {
    GroupFinderOptions finder_options;
    finder_options.threads = options_.threads;
    finder_options.backend = options_.backend;
    report.method_name = make_group_finder(options_.method, finder_options)->name();
  }

  {
    util::Stopwatch watch;
    report.num_user_assignments = total_assignments_;
    report.num_permission_grants = total_grants_;
    report.structural = structural();
    report.structural_time.seconds = watch.seconds();
  }

  auto run_phase = [&](PhaseTiming& timing, RoleGroups& out, auto&& compute) -> bool {
    if (ctx.expired()) {
      timing.timed_out = true;
      return false;
    }
    util::Stopwatch watch;
    out = compute(ctx);
    timing.seconds = watch.seconds();
    timing.timed_out = ctx.interrupted();
    return true;
  };

  // ---- type 4: digest equality partition across all shards ----------------
  run_phase(report.same_users_time, report.same_user_groups,
            [&](const util::ExecutionContext&) {
              return equal_groups(AxisKind::kUsers, &report.same_users_work);
            });
  run_phase(report.same_permissions_time, report.same_permission_groups,
            [&](const util::ExecutionContext&) {
              return equal_groups(AxisKind::kPerms, &report.same_permissions_work);
            });

  // ---- type 5: sharded pipeline with degenerate-threshold routing ---------
  shard_work_ = {};
  if (options_.detect_similar) {
    const bool jaccard = options_.similarity_mode == SimilarityMode::kJaccard;
    const std::size_t threshold = similar_threshold_scaled();
    // The batch finders' degenerate shortcuts, reproduced shard-side:
    // threshold 0 (either mode) is exactly the equality partition; a Jaccard
    // ceiling makes the exhaustive methods union every non-empty row, while
    // MinHash still only reaches band-collision candidates — that one runs
    // the normal banded sharded pipeline.
    const bool exhaustive_ceiling =
        jaccard && threshold >= cluster::kJaccardScale &&
        (options_.method == Method::kRoleDiet || options_.method == Method::kExactDbscan);

    auto similar_phase = [&](PhaseTiming& timing, RoleGroups& out, FinderWorkStats& work,
                             AxisKind axis, ShardSimilarStats& stats) {
      run_phase(timing, out, [&](const util::ExecutionContext& c) {
        if (threshold == 0) return equal_groups(axis, &work);
        if (exhaustive_ceiling) return all_nonempty_group(axis);
        return sharded_similar(axis, threshold, jaccard, c, work, stats);
      });
    };
    similar_phase(report.similar_users_time, report.similar_user_groups,
                  report.similar_users_work, AxisKind::kUsers, shard_work_.users);
    similar_phase(report.similar_permissions_time, report.similar_permission_groups,
                  report.similar_permissions_work, AxisKind::kPerms, shard_work_.perms);
  } else {
    report.similar_users_time.timed_out = false;
    report.similar_permissions_time.timed_out = false;
  }

  ++audits_;
  if (publish_versions_) publish_version(report);
  return report;
}

void ShardedEngine::publish_version(const AuditReport& report) {
  auto version = std::make_shared<EngineVersion>();
  version->version = version_;
  version->audits = audits_;
  version->dataset = std::make_shared<const RbacDataset>(snapshot());
  // Many reader threads will share this dataset; compile its lazy matrix
  // caches while we are still the sole owner (RbacDataset::warm_caches).
  version->dataset->warm_caches();
  version->report = report;
  // The sharded engine keeps no cross-reaudit pair caches, so the persistent
  // state is counters only; similar_valid stays false on both axes.
  version->state.version = version_;
  version->state.audits = audits_;
  version->state.audited_once = true;
  published_.publish(std::move(version));
}

}  // namespace rolediet::core
