// Steady-state audit engine: versioned dataset + artifact reuse for delta
// re-audits.
//
// The paper frames detection as a periodic batch job; operationally an IAM
// system mutates continuously (hires, transfers, grants) and most of a
// re-audit's work re-derives verdicts that yesterday's run already proved.
// AuditEngine is the long-lived counterpart of the one-shot audit(): it owns
// a mutable RBAC state (IncrementalAuditor), consumes RbacDelta mutation
// batches, and keeps the expensive detection artifacts alive across dataset
// versions so reaudit() only re-does work the delta could have changed:
//
//  - types 1-3: the batch structural phase on the RUAM/RPAM each reaudit
//    compiles from the live rows (linear; no pairs);
//  - type 4: the batch finder on the first pass, then maintained exactly by
//    the IncrementalAuditor's digest-bucket axis indexes (incremental.hpp);
//  - type 5: the *content-decided* matched pairs of the last similar-phase
//    run are cached per matrix axis. On re-audit only pairs with >= 1
//    endpoint in the dirty role set (roles whose row mutated on that axis)
//    are regenerated and re-verified; clean-clean pairs are taken from the
//    cache. Soundness: every method's matched set is defined by a
//    *pairwise-local* predicate (an exact kernel over the two rows —
//    Hamming/Jaccard threshold, LSH band co-occupancy + exact verify), so a
//    pair's verdict can only change when one of its endpoints mutates. Each
//    reaudit joins the uncached norm-decided pairs as one star;
//  - per-method candidate artifacts: a maintained MinHash band index
//    (cluster::MinHashBandIndex, re-signs only dirty rows) and a maintained
//    HNSW graph (incremental insert, tombstoned deletes, in-place reinsert
//    of mutated rows).
//
// Contract (engine_test fuzzes it): for every method except kApproxHnsw,
// reaudit() findings are byte-identical to a fresh batch audit() of
// snapshot(), at every thread count and row backend. HNSW is approximate by
// design — its maintained graph differs from a from-scratch build, so the
// engine path reports a (still exactly-verified) different candidate reach;
// the structural and type-4 findings remain exact even then.
//
// Degenerate similar-phase configurations (Hamming t = 0, Jaccard scaled
// threshold 0 or >= kJaccardScale) take method-specific shortcut paths in
// the batch finders that bypass the pair pipeline, so they are recomputed in
// full each re-audit instead of cached — correct, just not incremental.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/hnsw.hpp"
#include "cluster/minhash.hpp"
#include "core/engine_version.hpp"
#include "core/framework.hpp"
#include "core/incremental.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"
#include "linalg/csr_matrix.hpp"
#include "util/execution_context.hpp"
#include "util/timer.hpp"

namespace rolediet::core {

/// One elementary change to the RBAC state, by entity *name* (journals must
/// survive re-interning; ids are an engine-internal detail).
enum class MutationKind : std::uint8_t {
  kAddUser,           ///< intern a user (no-op if the name exists)
  kAddRole,           ///< intern a role (no-op if the name exists)
  kAddPermission,     ///< intern a permission (no-op if the name exists)
  kAssignUser,        ///< add a RUAM edge (interns both names)
  kRevokeUser,        ///< remove a RUAM edge (no-op on unknown names)
  kGrantPermission,   ///< add a RPAM edge (interns both names)
  kRevokePermission,  ///< remove a RPAM edge (no-op on unknown names)
};

/// Journal record tag ("add-user", "assign-user", ...; io/journal.hpp).
[[nodiscard]] std::string_view to_string(MutationKind kind) noexcept;

struct Mutation {
  MutationKind kind = MutationKind::kAddUser;
  std::string role;    ///< role name for edge mutations; empty for add-*
  std::string entity;  ///< user/permission name; for add-* the entity's name
  [[nodiscard]] bool operator==(const Mutation&) const = default;
};

/// An ordered batch of mutations — the unit AuditEngine::apply() consumes
/// and io/journal.hpp serializes. Builder methods append and return *this
/// for chaining.
struct RbacDelta {
  std::vector<Mutation> mutations;

  RbacDelta& add_user(std::string name);
  RbacDelta& add_role(std::string name);
  RbacDelta& add_permission(std::string name);
  RbacDelta& assign_user(std::string role, std::string user);
  RbacDelta& revoke_user(std::string role, std::string user);
  RbacDelta& grant_permission(std::string role, std::string perm);
  RbacDelta& revoke_permission(std::string role, std::string perm);

  [[nodiscard]] std::size_t size() const noexcept { return mutations.size(); }
  [[nodiscard]] bool empty() const noexcept { return mutations.empty(); }
  [[nodiscard]] bool operator==(const RbacDelta&) const = default;
};

// EnginePersistentState and EngineVersion moved to core/engine_version.hpp
// (the published read view shares them with the service and store layers).

// ---- shared by audit(), AuditEngine and ShardedEngine ----------------------
// The one-shot audit() (framework.hpp) runs the batch phases on the
// dataset's own matrices; both engines keep their RBAC state in one
// IncrementalAuditor, and AuditEngine's full pass runs the same batch phases
// on the matrices it compiles from it. What they decide the same way is
// written once here.

/// Applies the batch in order, by name, through `engine`'s mutators: add-*
/// and edge additions intern unknown names, revocations of unknown names are
/// no-ops, so journals replay idempotently and every engine fed the same
/// stream lands on the same ids and version.
template <typename Engine>
void apply_delta(Engine& engine, const RbacDelta& delta) {
  for (const Mutation& m : delta.mutations) {
    switch (m.kind) {
      case MutationKind::kAddUser:
        engine.add_user(m.entity);
        break;
      case MutationKind::kAddRole:
        engine.add_role(m.entity);
        break;
      case MutationKind::kAddPermission:
        engine.add_permission(m.entity);
        break;
      case MutationKind::kAssignUser:
        engine.assign_user(engine.add_role(m.role), engine.add_user(m.entity));
        break;
      case MutationKind::kGrantPermission:
        engine.grant_permission(engine.add_role(m.role), engine.add_permission(m.entity));
        break;
      case MutationKind::kRevokeUser: {
        const std::optional<Id> role = engine.state().find_role(m.role);
        const std::optional<Id> user = engine.state().find_user(m.entity);
        if (role && user) engine.revoke_user(*role, *user);
        break;
      }
      case MutationKind::kRevokePermission: {
        const std::optional<Id> role = engine.state().find_role(m.role);
        const std::optional<Id> perm = engine.state().find_permission(m.entity);
        if (role && perm) engine.revoke_permission(*role, *perm);
        break;
      }
    }
  }
}

/// The finder an audit runs: `options.method` with its threads and backend.
[[nodiscard]] std::unique_ptr<GroupFinder> make_group_finder(const AuditOptions& options);

/// An audit's report before any phase runs: entity counts, options,
/// version, the content digest of `state`, and `finder`'s method name. The
/// state is the dataset a one-shot audit() reads or an engine's live
/// auditor; both digest identically (core/digest.hpp).
[[nodiscard]] AuditReport report_preamble(const RbacDataset& state, const AuditOptions& options,
                                          std::uint64_t version, const GroupFinder& finder);
[[nodiscard]] AuditReport report_preamble(const IncrementalAuditor& state,
                                          const AuditOptions& options, std::uint64_t version,
                                          const GroupFinder& finder);

/// Runs one detection phase under the reaudit's single deadline: a phase
/// that never starts is skipped (timed out, zero seconds), one the budget
/// stops mid-flight reports partial groups (see framework.hpp). Returns
/// whether the phase ran.
template <typename Compute>
bool run_phase(const util::ExecutionContext& ctx, PhaseTiming& timing, RoleGroups& out,
               Compute&& compute) {
  if (ctx.expired()) {
    timing.timed_out = true;
    return false;
  }
  util::Stopwatch watch;
  out = compute(ctx);
  timing.seconds = watch.seconds();
  timing.timed_out = ctx.interrupted();
  return true;
}

/// The similar phase's integer threshold: the Hamming threshold, or the
/// Jaccard dissimilarity on the kJaccardScale grid.
[[nodiscard]] std::size_t similar_threshold_scaled(const AuditOptions& options);

/// The similar phase's verdict at similar_threshold_scaled(options).
[[nodiscard]] methods::SimilarVerdict similar_verdict(const AuditOptions& options);

/// The structural phase on compiled RUAM/RPAM: the distinct-edge counts and
/// types 1-3 (detect_structural). The phase's time runs from `watch`'s
/// start, this call by default; a caller that compiles the matrices first
/// passes a watch started before the compile.
void structural_phase(AuditReport& report, const linalg::CsrMatrix& ruam,
                      const linalg::CsrMatrix& rpam, const util::Stopwatch& watch = {});

/// The batch same phase on one matrix: `finder`'s find_same under `ctx`,
/// through run_phase.
void batch_same_phase(const util::ExecutionContext& ctx, const GroupFinder& finder,
                      const linalg::CsrMatrix& matrix, PhaseTiming& timing, RoleGroups& out,
                      FinderWorkStats& work);

/// The batch similar phase on one matrix: `finder`'s Hamming or Jaccard
/// search at similar_threshold_scaled(options) under `ctx`, through
/// run_phase. With `sink`, the finder's pair-verifying paths append every
/// matched pair to it (GroupFinder::collect_matched_pairs), and the phase
/// makes it a pair cache — AuditEngine seeds its cache from it; audit()
/// passes none. Returns whether the phase ran.
bool batch_similar_phase(const util::ExecutionContext& ctx, const GroupFinder& finder,
                         const AuditOptions& options, const linalg::CsrMatrix& matrix,
                         PhaseTiming& timing, RoleGroups& out, FinderWorkStats& work,
                         methods::MatchedPairs* sink = nullptr);

/// Swaps the next immutable EngineVersion into `slot`: a bulk snapshot of
/// `state` (lazy matrix caches compiled while the writer is its sole owner),
/// the report, and the persistent state; the version counters come from
/// `persistent`.
void publish_version(VersionSlot& slot, const IncrementalAuditor& state,
                     const AuditReport& report, EnginePersistentState persistent);

class AuditEngine {
 public:
  /// Copies the snapshot's structure; options are fixed for the engine's
  /// lifetime (except the time budget, see set_time_budget()). Throws
  /// std::invalid_argument on invalid options (validate_audit_options).
  explicit AuditEngine(const RbacDataset& snapshot, AuditOptions options = {});

  // Single-writer object: copying would fork the mutation history, so copy
  // stays deleted. Moves are fine — the HNSW artifact's matrix lives on the
  // heap behind a stable handle (HnswArtifact::points), so nothing views
  // engine members by address anymore; share findings via published()
  // instead of copying the engine.
  AuditEngine(const AuditEngine&) = delete;
  AuditEngine& operator=(const AuditEngine&) = delete;
  AuditEngine(AuditEngine&&) noexcept = default;
  AuditEngine& operator=(AuditEngine&&) noexcept = default;

  // ---- mutations ----------------------------------------------------------
  // Every effective (state-changing) mutation bumps version() and marks the
  // touched role dirty on the mutated axis; no-ops change nothing. Dirty
  // roles are the re-verification frontier of the next reaudit().

  /// Applies the batch in order, by name: add-* and edge additions intern
  /// unknown names (a brand-new role is dirty on both axes); revocations of
  /// unknown names are no-ops, so journals replay idempotently.
  void apply(const RbacDelta& delta);

  /// Name-interning entity adds, mirroring IncrementalAuditor::add_*
  /// (existing name -> existing id, no duplicate entity).
  Id add_user(std::string_view name);
  Id add_role(std::string_view name);
  Id add_permission(std::string_view name);

  /// Id-based edge mutations; return false on no-ops, throw
  /// std::out_of_range on unknown ids (same contract as IncrementalAuditor).
  bool assign_user(Id role, Id user);
  bool revoke_user(Id role, Id user);
  bool grant_permission(Id role, Id perm);
  bool revoke_permission(Id role, Id perm);

  // ---- auditing -----------------------------------------------------------

  /// Re-audits the current dataset version. The first call runs the full
  /// batch pipeline (and seeds the artifacts); later calls update the
  /// artifacts in place and re-verify only the dirty frontier. Clears the
  /// dirty sets. Phases still honor options().time_budget_s per call; a
  /// budget-stopped phase reports partial groups and invalidates the
  /// affected artifacts, so the next reaudit() falls back to the full pass
  /// for that phase instead of trusting a half-updated cache.
  ///
  /// With publishing enabled, a completed reaudit() additionally captures
  /// the audited dataset + this report + the persistent state as an
  /// immutable EngineVersion and swaps it into published() — see
  /// core/engine_version.hpp.
  [[nodiscard]] AuditReport reaudit();

  // ---- publication --------------------------------------------------------

  /// Opt into version publication (off by default: capturing a version costs
  /// one bulk copy of the name tables and compiled rows per reaudit, O(names
  /// + edges) — about 2.4 ms on the 60k-employee churn-serve benchmark, 4-vCPU
  /// x86-64 host — which a caller that only reads the returned reports need
  /// not pay). The store/service layers enable it.
  void set_publish_versions(bool enabled) noexcept { publish_versions_ = enabled; }
  [[nodiscard]] bool publish_versions() const noexcept { return publish_versions_; }

  /// The last published version — one tiny spin-locked pointer copy any
  /// thread may make; null before the
  /// first published reaudit(). The returned handle keeps the version alive
  /// for as long as the caller holds it, independent of the engine.
  [[nodiscard]] std::shared_ptr<const EngineVersion> published() const {
    return published_.load();
  }

  /// Materializes the current version as an immutable dataset.
  [[nodiscard]] RbacDataset snapshot() const { return state_.snapshot(); }

  /// Mutable live state (read-only): lookups, degrees, role contents.
  [[nodiscard]] const IncrementalAuditor& state() const noexcept { return state_; }

  [[nodiscard]] const AuditOptions& options() const noexcept { return options_; }

  /// Monotone dataset version: number of effective mutations applied since
  /// construction (version 0 = the constructor snapshot).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Number of completed reaudit() calls.
  [[nodiscard]] std::uint64_t audits() const noexcept { return audits_; }

  /// Roles currently dirty on at least one axis (the pending frontier).
  [[nodiscard]] std::size_t dirty_roles() const noexcept;

  // ---- durability ---------------------------------------------------------

  /// Everything a durable checkpoint needs beyond snapshot() itself. Pair
  /// caches are exported only when valid (an invalid cache is pure rebuild
  /// work, not state).
  [[nodiscard]] EnginePersistentState persistent_state() const;

  /// Restores counters, the dirty frontier, and the pair caches captured by
  /// persistent_state(), on an engine freshly constructed from the matching
  /// snapshot() dataset, dropping norm-decided pairs (snapshot format 1 kept
  /// them). Throws std::invalid_argument when the state does not fit the
  /// current dataset (dirty flags or cached pair ids outside the role
  /// range). For kApproxHnsw the similar caches are dropped and
  /// audited_once is reset instead: the maintained graph is approximate and
  /// history-dependent, so recovery re-runs the deterministic batch pass and
  /// yields exactly what a cold rebuild on the same data yields.
  void restore_persistent_state(EnginePersistentState state);

  /// Replaces the per-reaudit wall-clock budget (seconds; 0 = unlimited).
  /// The one option that may change mid-life: replay drivers lift a budget
  /// after a timed-out pass, and recovery from an invalidated cache is part
  /// of the engine contract. Throws std::invalid_argument when negative or
  /// non-finite.
  void set_time_budget(double seconds);

 private:
  /// Cached content-decided matched pairs of one axis' similar phase (sorted,
  /// unique, role-id space). Invalid after a timed-out/skipped phase or
  /// under a non-cacheable configuration.
  struct PairCache {
    bool valid = false;
    methods::MatchedPairs pairs;
  };

  /// Maintained MinHash band index (kApproxMinhash only).
  struct MinHashArtifact {
    bool built = false;
    std::optional<cluster::MinHashBandIndex> index;
  };

  /// Maintained HNSW graph (kApproxHnsw only). `points` is the engine's own
  /// copy of the axis matrix on the heap — a stable handle the index views,
  /// so moving the engine (or the artifact) never invalidates the view, and
  /// copy-assigning the next version's matrix *into* it (same allocation,
  /// same address) keeps the view live across re-audits.
  struct HnswArtifact {
    bool built = false;
    std::shared_ptr<linalg::CsrMatrix> points;
    std::optional<cluster::HnswIndex> index;
    std::vector<std::uint8_t> slotted;  ///< row has a graph node (live or tombstone)
  };

  /// Everything versioned per matrix axis (RUAM = users, RPAM = perms).
  struct Axis {
    std::vector<std::uint8_t> dirty;  ///< per-role "row mutated since last reaudit"
    PairCache similar;
    MinHashArtifact minhash;
    HnswArtifact hnsw;
  };

  void mark_dirty(Axis& axis, Id role);
  [[nodiscard]] bool cacheable_exact() const;

  /// `degrees` are the column degrees of `matrix` (the auditor maintains
  /// them); they rank the prefix filter's columns.
  [[nodiscard]] RoleGroups delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                         std::span<const std::size_t> degrees,
                                         const util::ExecutionContext& ctx,
                                         FinderWorkStats& work);
  [[nodiscard]] RoleGroups hnsw_delta_similar(Axis& axis, const linalg::CsrMatrix& matrix,
                                              const util::ExecutionContext& ctx,
                                              FinderWorkStats& work);
  /// Shared tail of the delta paths: merge the cached clean-clean pairs into
  /// the frontier forest, extract groups, fill the delta counters, and
  /// replace (or invalidate) the pair cache from `matrix`'s norms.
  [[nodiscard]] RoleGroups finish_delta(Axis& axis, const linalg::CsrMatrix& matrix,
                                        methods::PairPipelineOutcome&& outcome,
                                        methods::MatchedPairs&& fresh, std::size_t dirty_count,
                                        const util::ExecutionContext& ctx,
                                        FinderWorkStats& work);

  AuditOptions options_;
  IncrementalAuditor state_;
  linalg::CsrMatrix ruam_;  ///< rebuilt from state_ at each reaudit()
  linalg::CsrMatrix rpam_;
  Axis users_axis_;
  Axis perms_axis_;
  bool audited_once_ = false;
  std::uint64_t version_ = 0;
  std::uint64_t audits_ = 0;
  bool publish_versions_ = false;
  VersionSlot published_;
};

}  // namespace rolediet::core
