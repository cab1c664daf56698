// One-call inefficiency-detection framework (§III).
//
// audit() runs the complete taxonomy over a dataset:
//   types 1-3 via the linear-time structural detectors,
//   type 4 (same users / same permissions) and
//   type 5 (similar users / similar permissions, threshold t)
// via the configured group-finder method, timing each phase. The result is a
// structured report that examples and benches render as text, CSV, or JSON.
//
// Nothing is fixed automatically: findings are advisory (the paper's
// CEO-role example), and consolidation is a separate explicit step
// (consolidation.hpp).
#pragma once

#include <optional>
#include <string>

#include "core/detector.hpp"
#include "core/group_finder.hpp"
#include "core/model.hpp"

namespace rolediet::core {

/// How type-5 similarity is measured.
enum class SimilarityMode {
  kHamming,  ///< absolute: at most N differing users/permissions (the paper)
  kJaccard,  ///< relative: at most a fraction of the union differing
};

struct AuditOptions {
  Method method = Method::kRoleDiet;
  /// Run type-5 detection (can dominate runtime for the baselines).
  bool detect_similar = true;
  /// Hamming threshold for type 5; 1 = "all but one user/permission"
  /// (the paper's real-data setting). Used when similarity_mode == kHamming.
  std::size_t similarity_threshold = 1;
  SimilarityMode similarity_mode = SimilarityMode::kHamming;
  /// Dissimilarity fraction in [0, 1] used when similarity_mode == kJaccard:
  /// 0.1 groups roles whose user/permission sets overlap by >= 90%.
  double jaccard_dissimilarity = 0.1;
  /// Hard wall-clock budget in seconds for the whole audit, enforced through
  /// a util::ExecutionContext threaded into every group-finding phase. A
  /// phase that is still running when the budget expires stops at its next
  /// candidate-batch checkpoint and reports the groups verified so far
  /// (marked timed-out, seconds > 0); phases not yet started are skipped
  /// (timed-out, seconds == 0). 0 = unlimited; negative values are rejected
  /// by audit(). Models the paper's 24-hour halt of the baselines on the
  /// real dataset.
  double time_budget_s = 0.0;
  /// Worker threads for the group-finding phases, under the library-wide
  /// knob convention in util/thread_pool.hpp (1 = sequential, 0 = shared
  /// default pool, N >= 2 = private pool of N workers). Every method's
  /// groups are byte-identical for every value.
  std::size_t threads = 1;
  /// Row-kernel backend for the distance kernels (linalg/row_store.hpp).
  /// kAuto picks sparse below the density threshold; reports are
  /// byte-identical for every choice (role-diet ignores it — natively
  /// sparse).
  linalg::RowBackend backend = linalg::RowBackend::kAuto;
};

/// Timing of one audit phase, seconds. A `timed_out` phase either never
/// started (seconds == 0, groups empty) or was stopped mid-flight by the
/// budget (seconds > 0, groups partial — verified true positives only, a
/// co-membership subset of the unbudgeted run's groups).
struct PhaseTiming {
  double seconds = 0.0;
  bool timed_out = false;
};

struct AuditReport {
  // Dataset shape.
  std::size_t num_users = 0;
  std::size_t num_roles = 0;
  std::size_t num_permissions = 0;
  std::size_t num_user_assignments = 0;   ///< distinct RUAM edges
  std::size_t num_permission_grants = 0;  ///< distinct RPAM edges

  // Types 1-3.
  StructuralFindings structural;

  // Type 4.
  RoleGroups same_user_groups;
  RoleGroups same_permission_groups;

  // Type 5 (empty when detect_similar == false or timed out).
  RoleGroups similar_user_groups;
  RoleGroups similar_permission_groups;
  std::size_t similarity_threshold = 1;
  SimilarityMode similarity_mode = SimilarityMode::kHamming;
  double jaccard_dissimilarity = 0.1;  ///< meaningful when mode is kJaccard

  // Bookkeeping.
  std::string method_name;
  /// Dataset version of the engine that produced these findings (0 for a
  /// one-shot audit(); the effective-mutation count for a live engine), and
  /// the canonical content digest of that dataset (core/digest.hpp) — enough
  /// to match a stored report to the exact store state it describes.
  std::uint64_t engine_version = 0;
  std::uint64_t dataset_digest = 0;
  /// The resolved options this audit ran with, echoed verbatim so a report
  /// is self-describing (JSON and text both render them).
  AuditOptions options;
  PhaseTiming structural_time;
  PhaseTiming same_users_time;
  PhaseTiming same_permissions_time;
  PhaseTiming similar_users_time;
  PhaseTiming similar_permissions_time;

  // Work counters reported by the finder after each group-finding phase
  // (all zero for skipped phases; partial counts for phases the budget
  // stopped mid-flight).
  FinderWorkStats same_users_work;
  FinderWorkStats same_permissions_work;
  FinderWorkStats similar_users_work;
  FinderWorkStats similar_permissions_work;

  /// Total wall time of all phases, including the partial time a budget-
  /// stopped phase consumed before its checkpoint fired.
  [[nodiscard]] double total_seconds() const noexcept;

  /// Roles removable by consolidating type-4 groups (sum of |group|-1 over
  /// both matrices; an upper bound — overlapping roles counted once per
  /// kind, as in the paper's "about 10%" estimate).
  [[nodiscard]] std::size_t reducible_roles() const noexcept {
    return same_user_groups.reducible_roles() + same_permission_groups.reducible_roles();
  }

  /// Multi-line human-readable summary (the §IV-B style table).
  [[nodiscard]] std::string to_text() const;
};

/// Library-level mirror of the CLI flag checks: throws std::invalid_argument
/// when jaccard_dissimilarity is outside [0, 1] or time_budget_s is negative
/// or non-finite.
void validate_audit_options(const AuditOptions& options);

/// Runs the full detection framework over `dataset`, directly on its
/// compiled RUAM/RPAM: no engine state is built. The phases are the batch
/// phases core::AuditEngine's first (full) re-audit runs on the matrices it
/// compiles (engine.hpp), so the two entry points share one phase
/// implementation and report identical findings, counters and digest.
///
/// Validates `options` up front (validate_audit_options) so library callers
/// get the same guardrails the CLI enforces on its flags.
[[nodiscard]] AuditReport audit(const RbacDataset& dataset, const AuditOptions& options = {});

}  // namespace rolediet::core
