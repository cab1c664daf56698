#include "core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cluster/metric.hpp"
#include "cluster/minhash.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"
#include "linalg/row_store.hpp"
#include "util/timer.hpp"

namespace rolediet::core {

namespace {

/// Interns a restore image's names in id order, releasing each as it is
/// copied; a repeated name means the image was not written by an engine.
[[nodiscard]] NameTable restored_names(std::vector<std::string> names) {
  NameTable table;
  table.reserve(names.size());
  for (std::string& name : names) {
    if (!table.intern(name).second) {
      throw std::invalid_argument("ShardedEngine: duplicate entity names in restore image");
    }
    std::string().swap(name);
  }
  return table;
}

}  // namespace

// ------------------------------------------------------------ construction --

ShardedEngine::ShardedEngine(const RbacDataset& snapshot, std::size_t shards,
                             AuditOptions options)
    : options_(options), state_(snapshot), initial_roles_(snapshot.num_roles()) {
  validate_audit_options(options_);
  if (shards == 0) throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  shard_roles_.resize(shards);
  owner_.reserve(initial_roles_);
  for (Id gid = 0; gid < initial_roles_; ++gid) register_role(gid);
}

ShardedEngine::ShardedEngine(std::vector<std::string> user_names,
                             std::vector<std::string> role_names,
                             std::vector<std::string> perm_names,
                             std::vector<ShardImage> images, std::size_t initial_roles,
                             std::uint64_t version, std::uint64_t audits, AuditOptions options)
    : options_(options), initial_roles_(initial_roles), version_(version), audits_(audits) {
  validate_audit_options(options_);
  if (images.empty()) throw std::invalid_argument("ShardedEngine: no shard images");
  shard_roles_.resize(images.size());

  NameTable users = restored_names(std::move(user_names));
  NameTable roles = restored_names(std::move(role_names));
  NameTable perms = restored_names(std::move(perm_names));
  const std::size_t num_roles = roles.size();
  constexpr std::uint32_t kUnowned = ~std::uint32_t{0};
  owner_.assign(num_roles, kUnowned);
  std::vector<std::uint32_t> local(num_roles, 0);  // per role: its row in its image
  for (std::size_t s = 0; s < images.size(); ++s) {
    const ShardImage& img = images[s];
    if (img.users.rows() > img.roles.size() || img.perms.rows() > img.roles.size()) {
      throw std::invalid_argument("ShardedEngine: shard body has more rows than roles");
    }
    for (std::size_t i = 0; i < img.roles.size(); ++i) {
      const Id gid = img.roles[i];
      if (gid >= num_roles || owner_[gid] != kUnowned || (i > 0 && gid <= img.roles[i - 1]) ||
          owner_of_new_role(gid) != s) {
        throw std::invalid_argument("ShardedEngine: shard image is not the expected partition");
      }
      owner_[gid] = static_cast<std::uint32_t>(s);
      local[gid] = static_cast<std::uint32_t>(i);
    }
    shard_roles_[s].assign(img.roles.begin(), img.roles.end());
  }
  if (std::find(owner_.begin(), owner_.end(), kUnowned) != owner_.end()) {
    throw std::invalid_argument("ShardedEngine: role missing from every shard");
  }

  // Gather both axes in global role order; from_csr rejects a row that is
  // unsorted, repeats an id, or names an entity the tables do not have.
  const auto gather = [&](linalg::CsrView ShardImage::* axis, std::size_t cols) {
    std::vector<std::size_t> row_ptr{0};
    row_ptr.reserve(num_roles + 1);
    std::vector<Id> cols_idx;
    for (Id gid = 0; gid < num_roles; ++gid) {
      const linalg::CsrView& view = images[owner_[gid]].*axis;
      if (local[gid] < view.rows()) {
        const auto cells = view.row(local[gid]);
        cols_idx.insert(cols_idx.end(), cells.begin(), cells.end());
      }
      row_ptr.push_back(cols_idx.size());
    }
    return linalg::CsrMatrix::from_csr(cols, std::move(row_ptr), std::move(cols_idx));
  };
  const linalg::CsrMatrix ruam = gather(&ShardImage::users, users.size());
  const linalg::CsrMatrix rpam = gather(&ShardImage::perms, perms.size());
  state_ = IncrementalAuditor(std::move(users), std::move(roles), std::move(perms), ruam, rpam);
}

std::size_t ShardedEngine::owner_of_new_role(Id gid) const noexcept {
  const std::size_t shards = shard_roles_.size();
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

void ShardedEngine::register_role(Id gid) {
  const std::size_t s = owner_of_new_role(gid);
  owner_.push_back(static_cast<std::uint32_t>(s));
  shard_roles_[s].push_back(gid);
}

// --------------------------------------------------------------- mutations --

bool ShardedEngine::counted(bool changed) noexcept {
  if (changed) ++version_;
  return changed;
}

Id ShardedEngine::add_user(std::string_view name) {
  const std::size_t before = state_.num_users();
  const Id id = state_.add_user(name);
  counted(state_.num_users() != before);
  return id;
}

Id ShardedEngine::add_permission(std::string_view name) {
  const std::size_t before = state_.num_permissions();
  const Id id = state_.add_permission(name);
  counted(state_.num_permissions() != before);
  return id;
}

Id ShardedEngine::add_role(std::string_view name) {
  const std::size_t before = state_.num_roles();
  const Id id = state_.add_role(name);
  if (counted(state_.num_roles() != before)) register_role(id);
  return id;
}

bool ShardedEngine::assign_user(Id role, Id user) {
  return counted(state_.assign_user(role, user));
}

bool ShardedEngine::revoke_user(Id role, Id user) {
  return counted(state_.revoke_user(role, user));
}

bool ShardedEngine::grant_permission(Id role, Id perm) {
  return counted(state_.grant_permission(role, perm));
}

bool ShardedEngine::revoke_permission(Id role, Id perm) {
  return counted(state_.revoke_permission(role, perm));
}

void ShardedEngine::apply(const RbacDelta& delta) { apply_delta(*this, delta); }

// ----------------------------------------------------------------- lookups --

std::span<const Id> ShardedEngine::row(AxisKind axis, Id role) const {
  return axis == AxisKind::kUsers ? state_.users_of_role(role) : state_.permissions_of_role(role);
}

ShardedEngine::ShardExport ShardedEngine::export_shard(std::size_t s) const {
  const std::vector<Id>& roles = shard_roles_.at(s);
  ShardExport out;
  out.roles = roles;
  out.users_row_ptr.reserve(roles.size() + 1);
  out.perms_row_ptr.reserve(roles.size() + 1);
  out.users_row_ptr.push_back(0);
  out.perms_row_ptr.push_back(0);
  for (const Id gid : roles) {
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

RoleGroups ShardedEngine::all_nonempty_group(AxisKind axis) const {
  // Jaccard ceiling for the exhaustive methods: every non-empty pair is
  // within threshold, so the similar relation has one giant component.
  std::vector<std::size_t> members;
  for (Id gid = 0; gid < state_.num_roles(); ++gid) {
    if (!row(axis, gid).empty()) members.push_back(gid);
  }
  RoleGroups out;
  if (members.size() >= 2) out.groups.push_back(std::move(members));
  out.normalize();
  return out;
}

RoleGroups ShardedEngine::sharded_similar(AxisKind axis, std::size_t threshold, bool jaccard,
                                          GroupFinder& finder,
                                          const util::ExecutionContext& ctx,
                                          FinderWorkStats& work, ShardSimilarStats& stats) {
  const std::size_t num_roles = state_.num_roles();
  const std::size_t axis_cols =
      axis == AxisKind::kUsers ? state_.num_users() : state_.num_permissions();
  const auto norm = [&](Id gid) { return row(axis, gid).size(); };
  const methods::SimilarVerdict verdict = similar_verdict(options_);
  cluster::UnionFind forest(num_roles);
  std::size_t rows_processed = 0;
  std::size_t pairs_evaluated = 0;
  std::size_t pairs_matched = 0;

  // ---- stage 1: shard-local pair pipelines --------------------------------
  // Each shard's transient matrix keeps GLOBAL column ids, so distances,
  // digests, and MinHash signatures computed inside a shard are identical to
  // what the unsharded engine computes for the same rows.
  std::vector<linalg::CsrMatrix> matrices(shard_roles_.size());
  for (std::size_t s = 0; s < shard_roles_.size(); ++s) {
    if (ctx.expired()) break;
    const std::vector<Id>& roles = shard_roles_[s];
    std::vector<std::size_t> row_ptr;
    std::vector<Id> cols;
    row_ptr.reserve(roles.size() + 1);
    row_ptr.push_back(0);
    for (const Id gid : roles) {
      const auto r = row(axis, gid);
      cols.insert(cols.end(), r.begin(), r.end());
      row_ptr.push_back(cols.size());
    }
    matrices[s] = linalg::CsrMatrix::from_csr(axis_cols, std::move(row_ptr), std::move(cols));

    const RoleGroups local_groups =
        jaccard ? finder.find_similar_jaccard(matrices[s], threshold, ctx)
                : finder.find_similar(matrices[s], threshold, ctx);
    const FinderWorkStats shard_work = finder.last_work();
    rows_processed += shard_work.rows_processed;
    pairs_evaluated += shard_work.pairs_evaluated;
    pairs_matched += shard_work.pairs_matched;
    stats.local_pairs_evaluated.push_back(shard_work.pairs_evaluated);
    // Local groups are exactly the components of the matched relation
    // restricted to this shard; uniting each group's members reproduces that
    // connectivity in the global forest.
    for (const auto& group : local_groups.groups) {
      for (std::size_t i = 1; i < group.size(); ++i) {
        forest.unite(roles[group.front()], roles[group[i]]);
      }
    }
  }

  // ---- stage 2: signature exchange ----------------------------------------
  // Only compact signatures cross shard boundaries: MinHash band digests for
  // the LSH method (so the candidate set stays exactly the band-collision
  // set), prefix tokens for the exhaustive methods — each row's
  // prefix_length() rarest columns under the global (degree, id) order the
  // auditor maintains. Two rows within the threshold that share a column
  // share a prefix column (methods/prefix_filter.hpp), so the postings reach
  // every cross pair that can match; the length filter drops the rest before
  // stage 3 verifies exactly.
  std::vector<std::pair<Id, Id>> cross;
  if (!ctx.expired()) {
    if (options_.method == Method::kApproxMinhash) {
      cluster::MinHashParams params;  // the finder's defaults; content-only
      const cluster::MinHashSigner signer(params);
      std::vector<std::unordered_map<std::uint64_t, std::vector<Id>>> bands(params.bands);
      for (std::size_t s = 0; s < shard_roles_.size(); ++s) {
        if (matrices[s].rows() != shard_roles_[s].size()) continue;  // budget-cut shard
        const linalg::RowStore store(matrices[s]);
        for (std::size_t r = 0; r < shard_roles_[s].size(); ++r) {
          if (ctx.expired()) break;
          const std::vector<std::uint64_t> digests = signer.band_digests(store, r);
          stats.exchanged_signatures += digests.size();
          for (std::size_t band = 0; band < digests.size(); ++band) {
            bands[band][digests[band]].push_back(shard_roles_[s][r]);
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
      const methods::PrefixIndex index(
          num_roles,
          axis == AxisKind::kUsers ? state_.user_degrees() : state_.permission_degrees(), verdict,
          [&](std::size_t gid) { return row(axis, static_cast<Id>(gid)); });
      stats.exchanged_signatures += index.entries();
      methods::PrefixCandidates candidates(index);
      for (Id gid = 0; gid < num_roles; ++gid) {
        if (ctx.expired()) break;
        const auto remote = [&](std::size_t j) { return j > gid && owner_[j] != owner_[gid]; };
        for (const std::uint32_t j : candidates.collect(gid, remote)) cross.emplace_back(gid, j);
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
        ++pairs_evaluated;
        if (verdict.accepts(norm(a), norm(b), g)) {
          ++pairs_matched;
          ++stats.cross_matched;
          forest.unite(a, b);
        }
      }
    }
  }

  // ---- stage 4: the norm-decided star --------------------------------------
  // Hamming only: pairs whose norms sum to <= threshold match whatever they
  // share, including those the column exchange cannot see. The star is
  // global, so it joins cross-shard pairs too, counted as matches.
  stats.tiny_pairs = verdict.unite_norm_decided(num_roles, norm, forest);
  pairs_evaluated += stats.tiny_pairs;
  pairs_matched += stats.tiny_pairs;

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
  const std::unique_ptr<GroupFinder> finder = make_group_finder(options_);
  AuditReport report = report_preamble(state_, options_, version_, *finder);

  {
    util::Stopwatch watch;
    for (Id r = 0; r < state_.num_roles(); ++r) {
      report.num_user_assignments += row(AxisKind::kUsers, r).size();
      report.num_permission_grants += row(AxisKind::kPerms, r).size();
    }
    report.structural = state_.structural();
    report.structural_time.seconds = watch.seconds();
  }

  // ---- type 4: the auditor's maintained digest index ----------------------
  run_phase(ctx, report.same_users_time, report.same_user_groups,
            [&](const util::ExecutionContext&) {
              return state_.same_user_groups(&report.same_users_work);
            });
  run_phase(ctx, report.same_permissions_time, report.same_permission_groups,
            [&](const util::ExecutionContext&) {
              return state_.same_permission_groups(&report.same_permissions_work);
            });

  // ---- type 5: sharded pipeline with degenerate-threshold routing ---------
  shard_work_ = {};
  if (options_.detect_similar) {
    const bool jaccard = options_.similarity_mode == SimilarityMode::kJaccard;
    const std::size_t threshold = similar_threshold_scaled(options_);
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
      run_phase(ctx, timing, out, [&](const util::ExecutionContext& c) {
        if (threshold == 0) {
          return axis == AxisKind::kUsers ? state_.same_user_groups(&work)
                                          : state_.same_permission_groups(&work);
        }
        if (exhaustive_ceiling) return all_nonempty_group(axis);
        return sharded_similar(axis, threshold, jaccard, *finder, c, work, stats);
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
  if (publish_versions_) {
    // The sharded engine keeps no cross-reaudit pair caches, so the persistent
    // state is counters only; similar_valid stays false on both axes.
    EnginePersistentState persistent;
    persistent.version = version_;
    persistent.audits = audits_;
    persistent.audited_once = true;
    publish_version(published_, state_, report, std::move(persistent));
  }
  return report;
}

}  // namespace rolediet::core
