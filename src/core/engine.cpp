#include "core/engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/metric.hpp"
#include "core/digest.hpp"
#include "core/methods/approx.hpp"
#include "util/timer.hpp"

namespace rolediet::core {

// ------------------------------------------------------------- mutations ---

std::string_view to_string(MutationKind kind) noexcept {
  switch (kind) {
    case MutationKind::kAddUser: return "add-user";
    case MutationKind::kAddRole: return "add-role";
    case MutationKind::kAddPermission: return "add-permission";
    case MutationKind::kAssignUser: return "assign-user";
    case MutationKind::kRevokeUser: return "revoke-user";
    case MutationKind::kGrantPermission: return "grant-permission";
    case MutationKind::kRevokePermission: return "revoke-permission";
  }
  return "unknown";
}

RbacDelta& RbacDelta::add_user(std::string name) {
  mutations.push_back({MutationKind::kAddUser, {}, std::move(name)});
  return *this;
}

RbacDelta& RbacDelta::add_role(std::string name) {
  mutations.push_back({MutationKind::kAddRole, {}, std::move(name)});
  return *this;
}

RbacDelta& RbacDelta::add_permission(std::string name) {
  mutations.push_back({MutationKind::kAddPermission, {}, std::move(name)});
  return *this;
}

RbacDelta& RbacDelta::assign_user(std::string role, std::string user) {
  mutations.push_back({MutationKind::kAssignUser, std::move(role), std::move(user)});
  return *this;
}

RbacDelta& RbacDelta::revoke_user(std::string role, std::string user) {
  mutations.push_back({MutationKind::kRevokeUser, std::move(role), std::move(user)});
  return *this;
}

RbacDelta& RbacDelta::grant_permission(std::string role, std::string perm) {
  mutations.push_back({MutationKind::kGrantPermission, std::move(role), std::move(perm)});
  return *this;
}

RbacDelta& RbacDelta::revoke_permission(std::string role, std::string perm) {
  mutations.push_back({MutationKind::kRevokePermission, std::move(role), std::move(perm)});
  return *this;
}

// ---------------------------------------------------------------- engine ---

namespace {

/// Sorted role ids whose flag is set.
std::vector<std::size_t> dirty_list(const std::vector<std::uint8_t>& flags) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < flags.size(); ++r) {
    if (flags[r] != 0) out.push_back(r);
  }
  return out;
}

void sort_unique(methods::MatchedPairs& pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

/// The batch HNSW finder's effective index parameters, so the maintained
/// graph searches with the same beam widths and seed.
cluster::HnswParams engine_hnsw_params(cluster::MetricKind metric) {
  const methods::HnswGroupFinder::Options defaults;
  cluster::HnswParams params = defaults.index;
  params.metric = metric;
  params.ef_search = std::max(params.ef_search, defaults.query_ef);
  return params;
}

}  // namespace

AuditEngine::AuditEngine(const RbacDataset& snapshot, AuditOptions options)
    : options_(options), state_(snapshot) {
  validate_audit_options(options_);
}

void AuditEngine::mark_dirty(Axis& axis, Id role) {
  if (axis.dirty.size() <= role) axis.dirty.resize(state_.num_roles(), 0);
  axis.dirty[role] = 1;
}

Id AuditEngine::add_user(std::string name) {
  const std::size_t before = state_.num_users();
  const Id id = state_.add_user(std::move(name));
  if (state_.num_users() != before) ++version_;  // columns grew; no row mutated
  return id;
}

Id AuditEngine::add_permission(std::string name) {
  const std::size_t before = state_.num_permissions();
  const Id id = state_.add_permission(std::move(name));
  if (state_.num_permissions() != before) ++version_;
  return id;
}

Id AuditEngine::add_role(std::string name) {
  const std::size_t before = state_.num_roles();
  const Id id = state_.add_role(std::move(name));
  if (state_.num_roles() != before) {
    // A new (empty) role is a new row on both matrices.
    mark_dirty(users_axis_, id);
    mark_dirty(perms_axis_, id);
    ++version_;
  }
  return id;
}

bool AuditEngine::assign_user(Id role, Id user) {
  const bool changed = state_.assign_user(role, user);
  if (changed) {
    mark_dirty(users_axis_, role);
    ++version_;
  }
  return changed;
}

bool AuditEngine::revoke_user(Id role, Id user) {
  const bool changed = state_.revoke_user(role, user);
  if (changed) {
    mark_dirty(users_axis_, role);
    ++version_;
  }
  return changed;
}

bool AuditEngine::grant_permission(Id role, Id perm) {
  const bool changed = state_.grant_permission(role, perm);
  if (changed) {
    mark_dirty(perms_axis_, role);
    ++version_;
  }
  return changed;
}

bool AuditEngine::revoke_permission(Id role, Id perm) {
  const bool changed = state_.revoke_permission(role, perm);
  if (changed) {
    mark_dirty(perms_axis_, role);
    ++version_;
  }
  return changed;
}

void AuditEngine::apply(const RbacDelta& delta) {
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
        const std::optional<Id> role = state_.find_role(m.role);
        const std::optional<Id> user = state_.find_user(m.entity);
        if (role && user) revoke_user(*role, *user);
        break;
      }
      case MutationKind::kRevokePermission: {
        const std::optional<Id> role = state_.find_role(m.role);
        const std::optional<Id> perm = state_.find_permission(m.entity);
        if (role && perm) revoke_permission(*role, *perm);
        break;
      }
    }
  }
}

std::size_t AuditEngine::dirty_roles() const noexcept {
  const std::size_t n = std::max(users_axis_.dirty.size(), perms_axis_.dirty.size());
  std::size_t count = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const bool users = r < users_axis_.dirty.size() && users_axis_.dirty[r] != 0;
    const bool perms = r < perms_axis_.dirty.size() && perms_axis_.dirty[r] != 0;
    count += (users || perms) ? 1 : 0;
  }
  return count;
}

EnginePersistentState AuditEngine::persistent_state() const {
  EnginePersistentState out;
  out.version = version_;
  out.audits = audits_;
  out.audited_once = audited_once_;
  auto pack = [](const Axis& axis) {
    EnginePersistentState::AxisState s;
    s.dirty = axis.dirty;
    s.similar_valid = axis.similar.valid;
    if (axis.similar.valid) s.similar_pairs = axis.similar.pairs;
    return s;
  };
  out.users = pack(users_axis_);
  out.perms = pack(perms_axis_);
  return out;
}

void AuditEngine::restore_persistent_state(EnginePersistentState state) {
  const std::size_t roles = state_.num_roles();
  for (const EnginePersistentState::AxisState* axis : {&state.users, &state.perms}) {
    if (axis->dirty.size() > roles) {
      throw std::invalid_argument(
          "restore_persistent_state: dirty flags exceed the dataset's role count");
    }
    for (const auto& [a, b] : axis->similar_pairs) {
      if (a >= roles || b >= roles) {
        throw std::invalid_argument(
            "restore_persistent_state: cached pair outside the dataset's role range");
      }
    }
  }
  version_ = state.version;
  audits_ = state.audits;
  audited_once_ = state.audited_once;
  const bool hnsw = options_.method == Method::kApproxHnsw;
  auto unpack = [&](Axis& axis, EnginePersistentState::AxisState&& s) {
    axis.dirty = std::move(s.dirty);
    axis.similar.valid = s.similar_valid && !hnsw;
    axis.similar.pairs =
        axis.similar.valid ? std::move(s.similar_pairs) : methods::MatchedPairs{};
    // Candidate artifacts are rebuild-marked: the next delta pass re-derives
    // them from the restored matrices. The index is dropped before its
    // viewed matrix handle.
    axis.minhash.built = false;
    axis.minhash.index.reset();
    axis.hnsw.built = false;
    axis.hnsw.index.reset();
    axis.hnsw.points.reset();
    axis.hnsw.slotted.clear();
  };
  unpack(users_axis_, std::move(state.users));
  unpack(perms_axis_, std::move(state.perms));
  // HNSW's maintained graph depends on insertion history; with it gone, the
  // deterministic full batch pass is the only path that reproduces what a
  // from-scratch engine on the same data reports.
  if (hnsw) audited_once_ = false;
}

void AuditEngine::set_time_budget(double seconds) {
  AuditOptions probe = options_;
  probe.time_budget_s = seconds;
  validate_audit_options(probe);
  options_.time_budget_s = seconds;
}

std::size_t AuditEngine::similar_threshold_scaled() const {
  return options_.similarity_mode == SimilarityMode::kJaccard
             ? jaccard_threshold(options_.jaccard_dissimilarity)
             : options_.similarity_threshold;
}

bool AuditEngine::cacheable_exact() const {
  // A similar phase is pair-cacheable only when its batch finder routes
  // through the pair pipeline for the whole matched set. Degenerate
  // thresholds take shortcut paths (digest partitions, Jaccard-ceiling star
  // unions) whose matched pairs the sink does not see; HNSW has its own
  // artifact path (approximate: candidate reach depends on graph history).
  if (options_.method == Method::kApproxHnsw) return false;
  if (options_.similarity_mode == SimilarityMode::kHamming) {
    return options_.similarity_threshold > 0;
  }
  const std::size_t scaled = jaccard_threshold(options_.jaccard_dissimilarity);
  return scaled > 0 && scaled < cluster::kJaccardScale;
}

RoleGroups AuditEngine::finish_delta(Axis& axis, methods::PairPipelineOutcome&& outcome,
                                     methods::MatchedPairs&& fresh, std::size_t dirty_count,
                                     const util::ExecutionContext& ctx, FinderWorkStats& work) {
  // Clean-clean pairs cannot have changed verdicts (pairwise-local
  // predicates); replay them from the cache. Pairs with a dirty endpoint
  // were regenerated by the caller (or are genuinely gone).
  auto is_dirty = [&axis](std::uint32_t r) {
    return r < axis.dirty.size() && axis.dirty[r] != 0;
  };
  methods::MatchedPairs kept;
  kept.reserve(axis.similar.pairs.size());
  for (const auto& [a, b] : axis.similar.pairs) {
    if (!is_dirty(a) && !is_dirty(b)) kept.emplace_back(a, b);
  }
  for (const auto& [a, b] : kept) outcome.forest.unite(a, b);

  RoleGroups out;
  out.groups = outcome.forest.groups(2);
  out.normalize();

  // Delta counters: the pipeline numbers describe frontier work only (the
  // bench compares them against the batch counters). merges derives from the
  // final groups; cached replays make pairs_matched and merges incomparable,
  // so conflicts are reported as 0 rather than a misleading difference.
  work = {};
  work.rows_processed = dirty_count;
  work.pairs_evaluated = outcome.pairs_evaluated;
  work.pairs_matched = outcome.pairs_matched;
  work.merges = out.roles_in_groups() - out.group_count();
  work.merge_conflicts = 0;

  if (ctx.interrupted()) {
    // The frontier was only partially re-verified; the merged pair set is a
    // subset and must not seed the next version's cache.
    axis.similar.valid = false;
  } else {
    sort_unique(fresh);
    kept.insert(kept.end(), fresh.begin(), fresh.end());
    sort_unique(kept);
    axis.similar.pairs = std::move(kept);
    axis.similar.valid = true;
  }
  return out;
}

RoleGroups AuditEngine::delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                      const util::ExecutionContext& ctx,
                                      FinderWorkStats& work) {
  const std::vector<std::size_t> dirty = dirty_list(axis.dirty);
  const linalg::RowStore store(matrix);  // sparse kernels; verdicts are backend-invariant
  const bool jaccard_mode = options_.similarity_mode == SimilarityMode::kJaccard;
  const std::size_t thr = similar_threshold_scaled();
  const cluster::MetricKind metric =
      jaccard_mode ? cluster::MetricKind::kJaccard : cluster::MetricKind::kHamming;
  auto is_dirty = [&axis](std::size_t j) { return j < axis.dirty.size() && axis.dirty[j] != 0; };
  // Dedupe rule: dirty row d emits (d, j) unless j is also dirty and will
  // emit the pair itself (j < d). Keeps the frontier scan near |D| * n even
  // when the whole matrix is dirty.
  auto emits_pair = [&](std::size_t d, std::size_t j) { return !is_dirty(j) || j > d; };

  methods::MatchedPairs fresh;
  methods::PairPipelineOutcome outcome{cluster::UnionFind(matrix.rows())};

  if (options_.method == Method::kApproxMinhash) {
    MinHashArtifact& art = axis.minhash;
    if (!art.built) {
      // First delta pass after a batch pass: sign every row once; later
      // passes re-sign only the frontier.
      art.index.emplace(cluster::MinHashParams{});
      for (std::size_t r = 0; r < matrix.rows(); ++r) art.index->update_row(store, r);
      art.built = true;
    } else {
      for (std::size_t d : dirty) art.index->update_row(store, d);
    }
    const cluster::MinHashBandIndex& index = *art.index;
    outcome = methods::pair_pipeline(
        dirty.size(), matrix.rows(), options_.threads, /*grain=*/1, ctx,
        [&] {
          // Candidates are gathered per dirty row and scored in one batched
          // intersection pass (same integers as per-pair calls).
          return [&, cand = std::vector<std::uint32_t>(),
                  g = std::vector<std::size_t>()](std::size_t d_slot, auto&& emit) mutable {
            const std::size_t d = dirty[d_slot];
            const std::size_t d_norm = store.row_size(d);
            if (d_norm == 0) return;
            cand.clear();
            for (std::uint32_t j : index.partners(d)) {
              if (emits_pair(d, j)) cand.push_back(j);
            }
            // Disjoint tiny pairs are invisible to LSH; the batch finder
            // covers them with a norm sweep, the frontier covers them here.
            if (!jaccard_mode && thr > 0 && d_norm < thr) {
              for (std::size_t j = 0; j < matrix.rows(); ++j) {
                const std::size_t j_norm = store.row_size(j);
                if (j == d || j_norm == 0 || j_norm >= thr) continue;
                if (d_norm + j_norm > thr || !emits_pair(d, j)) continue;
                cand.push_back(static_cast<std::uint32_t>(j));
              }
            }
            g.resize(cand.size());
            store.intersection_gather(d, cand, g.data());
            for (std::size_t k = 0; k < cand.size(); ++k) emit(d, cand[k], g[k]);
          };
        },
        [&](std::size_t a, std::size_t b, std::size_t g) {
          if (jaccard_mode) {
            return cluster::jaccard_scaled_from_counts(store.row_size(a), store.row_size(b),
                                                       g) <= thr;
          }
          return store.row_size(a) + store.row_size(b) - 2 * g <= thr;
        },
        &fresh);
  } else {
    // Role-diet / DBSCAN: the batch matched set is exactly {nonempty (a, b):
    // dist(a, b) <= thr}. At cacheable thresholds a matching pair either
    // shares a column (Jaccard < 1 always intersects; an intersecting
    // Hamming pair co-occurs by definition) or — Hamming only — is a
    // *disjoint* pair of tiny rows with norm(a) + norm(b) <= thr. Mirroring
    // the batch sweep's candidate structure keeps the frontier scan at
    // candidate volume instead of |D| * n.
    std::vector<std::vector<std::uint32_t>> by_col(matrix.cols());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      for (std::uint32_t c : matrix.row(r)) by_col[c].push_back(static_cast<std::uint32_t>(r));
    }
    std::vector<std::uint32_t> tiny;  // hamming only: rows with 0 < norm < thr
    if (!jaccard_mode) {
      for (std::size_t r = 0; r < matrix.rows(); ++r) {
        const std::size_t norm = store.row_size(r);
        if (norm > 0 && norm < thr) tiny.push_back(static_cast<std::uint32_t>(r));
      }
    }
    outcome = methods::pair_pipeline(
        dirty.size(), matrix.rows(), options_.threads, /*grain=*/1, ctx,
        [&] {
          // Per-worker dedupe stamps: each dirty row's candidates come from
          // several column lists, but every (d, j) is evaluated once. The
          // deduped candidate list is scored in one batched bounded-distance
          // pass (same integers as per-pair calls).
          return [&, seen = std::vector<std::size_t>(matrix.rows(), 0),
                  stamp = std::size_t{0}, cand = std::vector<std::uint32_t>(),
                  scores = std::vector<std::size_t>()](std::size_t d_slot,
                                                       auto&& emit) mutable {
            const std::size_t d = dirty[d_slot];
            const std::size_t d_norm = store.row_size(d);
            if (d_norm == 0) return;
            ++stamp;
            cand.clear();
            for (std::uint32_t c : matrix.row(d)) {
              for (std::uint32_t j : by_col[c]) {
                if (j == d || seen[j] == stamp || !emits_pair(d, j)) continue;
                seen[j] = stamp;
                cand.push_back(j);
              }
            }
            if (!jaccard_mode && d_norm < thr) {
              for (std::uint32_t j : tiny) {
                if (j == d || seen[j] == stamp || !emits_pair(d, j)) continue;
                if (d_norm + store.row_size(j) > thr) continue;
                seen[j] = stamp;
                cand.push_back(j);
              }
            }
            scores.resize(cand.size());
            cluster::distance_bounded_gather(metric, store, d, cand, thr, scores.data());
            for (std::size_t k = 0; k < cand.size(); ++k) emit(d, cand[k], scores[k]);
          };
        },
        [thr](std::size_t, std::size_t, std::size_t v) { return v <= thr; }, &fresh);
  }

  return finish_delta(axis, std::move(outcome), std::move(fresh), dirty.size(), ctx, work);
}

RoleGroups AuditEngine::hnsw_delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                           const util::ExecutionContext& ctx,
                                           FinderWorkStats& work) {
  const std::vector<std::size_t> dirty = dirty_list(axis.dirty);
  const bool jaccard_mode = options_.similarity_mode == SimilarityMode::kJaccard;
  const std::size_t thr = similar_threshold_scaled();
  const cluster::MetricKind metric =
      jaccard_mode ? cluster::MetricKind::kJaccard : cluster::MetricKind::kHamming;

  HnswArtifact& art = axis.hnsw;
  if (!art.points) art.points = std::make_shared<linalg::CsrMatrix>();
  *art.points = matrix;  // copy-assign into the stable handle the index views
  if (art.slotted.size() < matrix.rows()) art.slotted.resize(matrix.rows(), 0);
  if (!art.built) {
    art.index.emplace(linalg::RowStore(*art.points), engine_hnsw_params(metric));
    std::fill(art.slotted.begin(), art.slotted.end(), std::uint8_t{0});
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      if (art.points->row_size(r) > 0) {
        art.index->add(r);
        art.slotted[r] = 1;
      }
    }
    art.built = true;
  } else {
    for (std::size_t d : dirty) {
      const bool nonempty = art.points->row_size(d) > 0;
      if (art.slotted[d] == 0) {
        if (nonempty) {
          art.index->add(d);
          art.slotted[d] = 1;
        }
      } else if (nonempty) {
        art.index->reinsert(d);  // row mutated: revive + re-link in place
      } else {
        art.index->remove(d);  // tombstone; still routes as a waypoint
      }
    }
  }

  const cluster::HnswIndex& index = *art.index;
  auto is_dirty = [&axis](std::size_t j) { return j < axis.dirty.size() && axis.dirty[j] != 0; };
  methods::MatchedPairs fresh;
  methods::PairPipelineOutcome outcome = methods::pair_pipeline(
      dirty.size(), matrix.rows(), options_.threads, /*grain=*/1, ctx,
      [&] {
        return [&](std::size_t d_slot, auto&& emit) {
          const std::size_t d = dirty[d_slot];
          if (art.slotted[d] == 0 || art.points->row_size(d) == 0) return;
          for (const cluster::Neighbor& nb : index.range_search(d, thr)) {
            if (nb.id == d) continue;
            if (is_dirty(nb.id) && nb.id < d) continue;
            emit(d, nb.id, nb.dist);  // distances are exact; recall is not
          }
        };
      },
      [thr](std::size_t, std::size_t, std::size_t v) { return v <= thr; }, &fresh);

  return finish_delta(axis, std::move(outcome), std::move(fresh), dirty.size(), ctx, work);
}

AuditReport AuditEngine::reaudit() {
  const util::ExecutionContext ctx(options_.time_budget_s);
  AuditReport report;
  report.num_users = state_.num_users();
  report.num_roles = state_.num_roles();
  report.num_permissions = state_.num_permissions();
  report.similarity_threshold = options_.similarity_threshold;
  report.similarity_mode = options_.similarity_mode;
  report.jaccard_dissimilarity = options_.jaccard_dissimilarity;
  report.options = options_;
  report.engine_version = version_;
  report.dataset_digest = dataset_content_digest(state_);

  GroupFinderOptions finder_options;
  finder_options.threads = options_.threads;
  finder_options.backend = options_.backend;
  const std::unique_ptr<GroupFinder> finder = make_group_finder(options_.method, finder_options);
  report.method_name = finder->name();

  {
    util::Stopwatch watch;
    // Compiling RUAM/RPAM from the live state is part of this phase, exactly
    // as dataset.ruam()/rpam() compilation was in the one-shot audit.
    ruam_ = state_.compile_ruam();
    rpam_ = state_.compile_rpam();
    report.num_user_assignments = ruam_.nnz();
    report.num_permission_grants = rpam_.nnz();
    report.structural = state_.structural();
    report.structural_time.seconds = watch.seconds();
  }

  // One deadline covers the whole re-audit; phases that never start are
  // skipped (timed-out, zero seconds), phases the budget stops mid-flight
  // report partial groups (see framework.hpp). Returns whether the phase ran.
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

  // ---- type 4 -------------------------------------------------------------
  if (!audited_once_) {
    // First pass: the configured batch finder, so audit() == reaudit() #1
    // holds for every method including the approximate ones.
    run_phase(report.same_users_time, report.same_user_groups,
              [&](const util::ExecutionContext& c) {
                RoleGroups groups = finder->find_same(ruam_, c);
                report.same_users_work = finder->last_work();
                return groups;
              });
    run_phase(report.same_permissions_time, report.same_permission_groups,
              [&](const util::ExecutionContext& c) {
                RoleGroups groups = finder->find_same(rpam_, c);
                report.same_permissions_work = finder->last_work();
                return groups;
              });
  } else {
    // Steady state: the maintained digest index answers exactly (for the
    // exact methods this equals the batch finder's groups; for HNSW it is
    // at least as complete as the approximate batch pass).
    run_phase(report.same_users_time, report.same_user_groups,
              [&](const util::ExecutionContext&) {
                return state_.same_user_groups(&report.same_users_work);
              });
    run_phase(report.same_permissions_time, report.same_permission_groups,
              [&](const util::ExecutionContext&) {
                return state_.same_permission_groups(&report.same_permissions_work);
              });
  }

  // ---- type 5 -------------------------------------------------------------
  if (options_.detect_similar) {
    auto find_similar_batch = [&](const linalg::CsrMatrix& matrix,
                                  const util::ExecutionContext& c) {
      if (options_.similarity_mode == SimilarityMode::kJaccard) {
        return finder->find_similar_jaccard(
            matrix, jaccard_threshold(options_.jaccard_dissimilarity), c);
      }
      return finder->find_similar(matrix, options_.similarity_threshold, c);
    };

    auto similar_phase = [&](PhaseTiming& timing, RoleGroups& out, FinderWorkStats& work,
                             Axis& axis, const linalg::CsrMatrix& matrix) {
      const bool hnsw = options_.method == Method::kApproxHnsw;
      const bool cache_on = hnsw || cacheable_exact();

      if (audited_once_ && cache_on && axis.similar.valid) {
        const bool ran = run_phase(timing, out, [&](const util::ExecutionContext& c) {
          return hnsw ? hnsw_delta_similar(axis, matrix, c, work)
                      : delta_similar(axis, matrix, c, work);
        });
        if (!ran) {
          // Skipped entirely: the dirty set is about to be cleared without
          // the artifacts ever seeing it — none of them can be trusted.
          axis.similar.valid = false;
          axis.minhash.built = false;
          axis.hnsw.built = false;
        }
        return;
      }

      // Full batch pass (first audit, non-cacheable config, or invalidated
      // cache), arming the matched-pair sink to (re)seed the cache.
      methods::MatchedPairs collected;
      if (cache_on) finder->collect_matched_pairs(&collected);
      const bool ran = run_phase(timing, out, [&](const util::ExecutionContext& c) {
        RoleGroups groups = find_similar_batch(matrix, c);
        work = finder->last_work();
        return groups;
      });
      if (cache_on) finder->collect_matched_pairs(nullptr);
      // The batch pass bypassed the maintained candidate artifacts; drop
      // them so the next delta pass rebuilds from the current version.
      axis.minhash.built = false;
      axis.hnsw.built = false;
      if (cache_on && ran && !timing.timed_out) {
        sort_unique(collected);
        axis.similar.pairs = std::move(collected);
        axis.similar.valid = true;
      } else {
        axis.similar.valid = false;
      }
    };

    similar_phase(report.similar_users_time, report.similar_user_groups,
                  report.similar_users_work, users_axis_, ruam_);
    similar_phase(report.similar_permissions_time, report.similar_permission_groups,
                  report.similar_permissions_work, perms_axis_, rpam_);
  } else {
    report.similar_users_time.timed_out = false;
    report.similar_permissions_time.timed_out = false;
    for (Axis* axis : {&users_axis_, &perms_axis_}) {
      axis->similar.valid = false;
      axis->minhash.built = false;
      axis->hnsw.built = false;
    }
  }

  // The artifacts above either absorbed the frontier or were invalidated, so
  // the dirty flags can be cleared unconditionally.
  std::fill(users_axis_.dirty.begin(), users_axis_.dirty.end(), std::uint8_t{0});
  std::fill(perms_axis_.dirty.begin(), perms_axis_.dirty.end(), std::uint8_t{0});
  audited_once_ = true;
  ++audits_;
  if (publish_versions_) publish_version(report);
  return report;
}

void AuditEngine::publish_version(const AuditReport& report) {
  auto version = std::make_shared<EngineVersion>();
  version->version = version_;
  version->audits = audits_;
  version->dataset = state_.snapshot_shared();
  // Many reader threads will share this dataset; compile its lazy matrix
  // caches while we are still the sole owner (RbacDataset::warm_caches).
  version->dataset->warm_caches();
  version->report = report;
  version->state = persistent_state();
  published_.publish(std::move(version));
}

}  // namespace rolediet::core
