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

/// Makes collected pairs a pair cache: drops the pairs norms alone decide
/// (every reaudit joins those as one star from the current norms) and sorts
/// the rest unique. `norm(r)` is role r's norm on the cache's axis. HNSW's
/// delta pass joins no star, so its cache keeps every pair.
template <typename Norm>
void seal_pair_cache(methods::MatchedPairs& pairs, const AuditOptions& options, Norm&& norm) {
  if (options.method != Method::kApproxHnsw) {
    const methods::SimilarVerdict verdict = similar_verdict(options);
    std::erase_if(pairs, [&](const auto& p) {
      return verdict.norm_decided(norm(p.first), norm(p.second));
    });
  }
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

Id AuditEngine::add_user(std::string_view name) {
  const std::size_t before = state_.num_users();
  const Id id = state_.add_user(name);
  if (state_.num_users() != before) ++version_;  // columns grew; no row mutated
  return id;
}

Id AuditEngine::add_permission(std::string_view name) {
  const std::size_t before = state_.num_permissions();
  const Id id = state_.add_permission(name);
  if (state_.num_permissions() != before) ++version_;
  return id;
}

Id AuditEngine::add_role(std::string_view name) {
  const std::size_t before = state_.num_roles();
  const Id id = state_.add_role(name);
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

void AuditEngine::apply(const RbacDelta& delta) { apply_delta(*this, delta); }

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
  auto unpack = [&](Axis& axis, EnginePersistentState::AxisState&& s, auto&& norm) {
    axis.dirty = std::move(s.dirty);
    axis.similar.valid = s.similar_valid && !hnsw;
    axis.similar.pairs =
        axis.similar.valid ? std::move(s.similar_pairs) : methods::MatchedPairs{};
    seal_pair_cache(axis.similar.pairs, options_, norm);
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
  unpack(users_axis_, std::move(state.users),
         [this](std::uint32_t r) { return state_.users_of_role(r).size(); });
  unpack(perms_axis_, std::move(state.perms),
         [this](std::uint32_t r) { return state_.permissions_of_role(r).size(); });
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

RoleGroups AuditEngine::finish_delta(Axis& axis, const linalg::CsrMatrix& matrix,
                                     methods::PairPipelineOutcome&& outcome,
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
    kept.insert(kept.end(), fresh.begin(), fresh.end());
    seal_pair_cache(kept, options_, [&matrix](std::uint32_t r) { return matrix.row_size(r); });
    axis.similar.pairs = std::move(kept);
    axis.similar.valid = true;
  }
  return out;
}

RoleGroups AuditEngine::delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                      std::span<const std::size_t> degrees,
                                      const util::ExecutionContext& ctx,
                                      FinderWorkStats& work) {
  const std::vector<std::size_t> dirty = dirty_list(axis.dirty);
  const linalg::RowStore store(matrix);  // sparse kernels; verdicts are backend-invariant
  const methods::SimilarVerdict verdict = similar_verdict(options_);
  auto is_dirty = [&axis](std::size_t j) { return j < axis.dirty.size() && axis.dirty[j] != 0; };
  // Dedupe rule: dirty row d emits (d, j) unless j is also dirty and will
  // emit the pair itself (j < d). Keeps the frontier scan near |D| * n even
  // when the whole matrix is dirty.
  auto emits_pair = [&](std::size_t d, std::size_t j) { return !is_dirty(j) || j > d; };

  methods::MatchedPairs fresh;
  methods::PairPipelineOutcome outcome{cluster::UnionFind(matrix.rows())};
  // One frontier pipeline under the phase's verdict, fed by either method's
  // candidates.
  const auto frontier = [&](auto&& generator_factory) {
    return methods::pair_pipeline(
        dirty.size(), matrix.rows(), options_.threads, /*grain=*/1, ctx, generator_factory,
        [&](std::size_t a, std::size_t b, std::size_t g) {
          return verdict.accepts(store.row_size(a), store.row_size(b), g);
        },
        &fresh);
  };

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
    outcome = frontier([&] {
      // Candidates are gathered per dirty row and scored in one batched
      // intersection pass (same integers as per-pair calls).
      return [&, cand = std::vector<std::uint32_t>(),
              g = std::vector<std::size_t>()](std::size_t d_slot, auto&& emit) mutable {
        const std::size_t d = dirty[d_slot];
        if (store.row_size(d) == 0) return;
        cand.clear();
        for (std::uint32_t j : index.partners(d)) {
          if (emits_pair(d, j)) cand.push_back(j);
        }
        g.resize(cand.size());
        store.intersection_gather(d, cand, g.data());
        for (std::size_t k = 0; k < cand.size(); ++k) emit(d, cand[k], g[k]);
      };
    });
  } else {
    // Role-diet / DBSCAN: the batch matched set is exactly {nonempty (a, b):
    // dist(a, b) <= thr}. At cacheable thresholds a content-decided match
    // shares a column — and then a column of both rows' prefixes, so the
    // prefix filter (methods/prefix_filter.hpp) reaches it. The index is
    // rebuilt from this version's matrix under the maintained degrees, so
    // the frontier scan stays at candidate volume instead of |D| * n.
    const methods::PrefixIndex index(matrix, degrees, verdict);
    outcome = frontier([&] {
      return [&, candidates = methods::PrefixCandidates(index)](std::size_t d_slot,
                                                                auto&& emit) mutable {
        const std::size_t d = dirty[d_slot];
        candidates.score(d, store, [&](std::size_t j) { return emits_pair(d, j); }, emit);
      };
    });
  }

  // The pairs norms alone decide are in no cache: one star over the current
  // norms joins them (Hamming only). It is not frontier work, so the delta
  // counters leave it out.
  (void)verdict.unite_norm_decided(matrix, outcome.forest);
  return finish_delta(axis, matrix, std::move(outcome), std::move(fresh), dirty.size(), ctx,
                      work);
}

RoleGroups AuditEngine::hnsw_delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                           const util::ExecutionContext& ctx,
                                           FinderWorkStats& work) {
  const std::vector<std::size_t> dirty = dirty_list(axis.dirty);
  const bool jaccard_mode = options_.similarity_mode == SimilarityMode::kJaccard;
  const std::size_t thr = similar_threshold_scaled(options_);
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

  return finish_delta(axis, matrix, std::move(outcome), std::move(fresh), dirty.size(), ctx,
                      work);
}

AuditReport AuditEngine::reaudit() {
  const util::ExecutionContext ctx(options_.time_budget_s);
  const std::unique_ptr<GroupFinder> finder = make_group_finder(options_);
  AuditReport report = report_preamble(state_, options_, version_, *finder);

  {
    // Compiling RUAM/RPAM from the live state is part of this phase.
    const util::Stopwatch watch;
    ruam_ = state_.compile_ruam();
    rpam_ = state_.compile_rpam();
    structural_phase(report, ruam_, rpam_, watch);
  }

  // ---- type 4 -------------------------------------------------------------
  if (!audited_once_) {
    // First pass: the batch phases audit() runs, on this engine's matrices,
    // so audit() == reaudit() #1 holds for every method including the
    // approximate ones.
    batch_same_phase(ctx, *finder, ruam_, report.same_users_time, report.same_user_groups,
                     report.same_users_work);
    batch_same_phase(ctx, *finder, rpam_, report.same_permissions_time,
                     report.same_permission_groups, report.same_permissions_work);
  } else {
    // Steady state: the maintained digest index answers exactly (for the
    // exact methods this equals the batch finder's groups; for HNSW it is
    // at least as complete as the approximate batch pass).
    run_phase(ctx, report.same_users_time, report.same_user_groups,
              [&](const util::ExecutionContext&) {
                return state_.same_user_groups(&report.same_users_work);
              });
    run_phase(ctx, report.same_permissions_time, report.same_permission_groups,
              [&](const util::ExecutionContext&) {
                return state_.same_permission_groups(&report.same_permissions_work);
              });
  }

  // ---- type 5 -------------------------------------------------------------
  if (options_.detect_similar) {
    auto similar_phase = [&](PhaseTiming& timing, RoleGroups& out, FinderWorkStats& work,
                             Axis& axis, const linalg::CsrMatrix& matrix,
                             std::span<const std::size_t> degrees) {
      const bool hnsw = options_.method == Method::kApproxHnsw;
      const bool cache_on = hnsw || cacheable_exact();

      if (audited_once_ && cache_on && axis.similar.valid) {
        const bool ran = run_phase(ctx, timing, out, [&](const util::ExecutionContext& c) {
          return hnsw ? hnsw_delta_similar(axis, matrix, c, work)
                      : delta_similar(axis, matrix, degrees, c, work);
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
      // cache): audit()'s phase plus the matched-pair sink that (re)seeds
      // the cache.
      methods::MatchedPairs collected;
      const bool ran = batch_similar_phase(ctx, *finder, options_, matrix, timing, out, work,
                                           cache_on ? &collected : nullptr);
      // The batch pass bypassed the maintained candidate artifacts; drop
      // them so the next delta pass rebuilds from the current version.
      axis.minhash.built = false;
      axis.hnsw.built = false;
      axis.similar.valid = cache_on && ran && !timing.timed_out;
      if (axis.similar.valid) axis.similar.pairs = std::move(collected);  // sealed by the phase
    };

    similar_phase(report.similar_users_time, report.similar_user_groups,
                  report.similar_users_work, users_axis_, ruam_, state_.user_degrees());
    similar_phase(report.similar_permissions_time, report.similar_permission_groups,
                  report.similar_permissions_work, perms_axis_, rpam_,
                  state_.permission_degrees());
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
  if (publish_versions_) publish_version(published_, state_, report, persistent_state());
  return report;
}

// ------------------------------------- shared by audit() and both engines ---

std::unique_ptr<GroupFinder> make_group_finder(const AuditOptions& options) {
  GroupFinderOptions finder_options;
  finder_options.threads = options.threads;
  finder_options.backend = options.backend;
  return make_group_finder(options.method, finder_options);
}

namespace {

/// Works for both RbacDataset and IncrementalAuditor, like digest_of
/// (digest.cpp): they expose the same count accessors.
template <typename State>
AuditReport preamble_of(const State& state, const AuditOptions& options, std::uint64_t version,
                        const GroupFinder& finder) {
  AuditReport report;
  report.num_users = state.num_users();
  report.num_roles = state.num_roles();
  report.num_permissions = state.num_permissions();
  report.similarity_threshold = options.similarity_threshold;
  report.similarity_mode = options.similarity_mode;
  report.jaccard_dissimilarity = options.jaccard_dissimilarity;
  report.options = options;
  report.engine_version = version;
  report.dataset_digest = dataset_content_digest(state);
  report.method_name = finder.name();
  return report;
}

}  // namespace

AuditReport report_preamble(const RbacDataset& state, const AuditOptions& options,
                            std::uint64_t version, const GroupFinder& finder) {
  return preamble_of(state, options, version, finder);
}

AuditReport report_preamble(const IncrementalAuditor& state, const AuditOptions& options,
                            std::uint64_t version, const GroupFinder& finder) {
  return preamble_of(state, options, version, finder);
}

std::size_t similar_threshold_scaled(const AuditOptions& options) {
  return options.similarity_mode == SimilarityMode::kJaccard
             ? jaccard_threshold(options.jaccard_dissimilarity)
             : options.similarity_threshold;
}

methods::SimilarVerdict similar_verdict(const AuditOptions& options) {
  const std::size_t threshold = similar_threshold_scaled(options);
  return options.similarity_mode == SimilarityMode::kJaccard
             ? methods::SimilarVerdict::jaccard(threshold)
             : methods::SimilarVerdict::hamming(threshold);
}

void structural_phase(AuditReport& report, const linalg::CsrMatrix& ruam,
                      const linalg::CsrMatrix& rpam, const util::Stopwatch& watch) {
  report.num_user_assignments = ruam.nnz();
  report.num_permission_grants = rpam.nnz();
  report.structural = detect_structural(ruam, rpam);
  report.structural_time.seconds = watch.seconds();
}

void batch_same_phase(const util::ExecutionContext& ctx, const GroupFinder& finder,
                      const linalg::CsrMatrix& matrix, PhaseTiming& timing, RoleGroups& out,
                      FinderWorkStats& work) {
  run_phase(ctx, timing, out, [&](const util::ExecutionContext& c) {
    RoleGroups groups = finder.find_same(matrix, c);
    work = finder.last_work();
    return groups;
  });
}

bool batch_similar_phase(const util::ExecutionContext& ctx, const GroupFinder& finder,
                         const AuditOptions& options, const linalg::CsrMatrix& matrix,
                         PhaseTiming& timing, RoleGroups& out, FinderWorkStats& work,
                         methods::MatchedPairs* sink) {
  const std::size_t threshold = similar_threshold_scaled(options);
  const bool jaccard = options.similarity_mode == SimilarityMode::kJaccard;
  finder.collect_matched_pairs(sink);
  const bool ran = run_phase(ctx, timing, out, [&](const util::ExecutionContext& c) {
    RoleGroups groups = jaccard ? finder.find_similar_jaccard(matrix, threshold, c)
                                : finder.find_similar(matrix, threshold, c);
    work = finder.last_work();
    // Seeding a pair cache is part of the phase, and of its time.
    if (sink != nullptr) {
      seal_pair_cache(*sink, options, [&matrix](std::uint32_t r) { return matrix.row_size(r); });
    }
    return groups;
  });
  finder.collect_matched_pairs(nullptr);
  return ran;
}

void publish_version(VersionSlot& slot, const IncrementalAuditor& state,
                     const AuditReport& report, EnginePersistentState persistent) {
  auto version = std::make_shared<EngineVersion>();
  version->version = persistent.version;
  version->audits = persistent.audits;
  version->dataset = state.snapshot_shared();
  // Many reader threads will share this dataset; compile its lazy matrix
  // caches while we are still the sole owner (RbacDataset::warm_caches).
  version->dataset->warm_caches();
  version->report = report;
  version->state = std::move(persistent);
  slot.publish(std::move(version));
}

}  // namespace rolediet::core
