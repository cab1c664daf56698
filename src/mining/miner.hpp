// Role mining: replace the current role decomposition with a smaller one
// that grants every user exactly the same effective permission set.
//
// Pipeline (all deterministic at every thread count and backend):
//
//   1. build_upa_classes — the effective UPA, deduplicated into weighted
//      user classes (mining/upa.hpp);
//   2. enumerate_closed_sets — candidate roles are the maximal bicliques of
//      the UPA (mining/biclique.hpp), each with the supporting classes the
//      enumerator carries, chunked to respect a permissions-per-role cap (a
//      sub-rectangle of a biclique is still a biclique);
//   3. constrained greedy set cover over the candidates — lazy-greedy with
//      score(K) = newly covered UPA cells / (1 + r * (assignments + grants
//      the role adds now)) for an edge-emphasis ratio r, with the
//      roles-per-user cap enforced by a feasibility guard (Blundo & Cimato
//      style constrained mining); every pass opens on the same empty
//      coverage, so the pool is scored once for all of them;
//   4. mop-up — any class with still-uncovered permissions gets them from
//      (deduplicated) residual roles, so coverage is complete even when the
//      candidate pool was truncated by the --budget deadline;
//   5. pruning — redundant user->role assignments (in reverse selection
//      order) and then empty roles are removed; both objectives only improve;
//   6. bi-objective scalarization (Crampton et al.) — steps 3-5 run once per
//      ratio in a FIXED edge-emphasis ladder, the duplicate-merge
//      consolidation of the input joins the portfolio (when it satisfies the
//      caps), and the plan minimizing role_weight * roles + edge_weight *
//      edges wins. Because the portfolio never depends on the user's weights,
//      the weights are provably monotone knobs: raising edge_weight never
//      increases the emitted plan's edge count (and symmetrically for
//      role_weight and role count). The fallback entry additionally makes the
//      emitted plan never worse than the paper's safe duplicate-merge cleanup
//      under the user's weights.
//
// Safety: apply_mining() rebuilds the dataset with users and permissions
// verbatim (same ids, same names) and ONLY the roles replaced, so the
// existing core::verify_equivalence — an exact per-user comparison of
// effective permission sets — applies unchanged. mine() runs it on every
// plan; steps 4-5 guarantee the check passes by construction (every class
// ends fully covered, and covered-by-construction means each user's
// reachable set is exactly its original row), but the verifier is the
// contract, not the construction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "linalg/row_store.hpp"

namespace rolediet::mining {

struct MiningOptions {
  /// Cap on roles assigned to any single user; 0 = unlimited. Plans exceed
  /// neither cap; infeasible caps (a user whose permission set cannot be
  /// covered by max_roles_per_user roles of max_perms_per_role permissions)
  /// throw std::invalid_argument from plan_mining.
  std::size_t max_roles_per_user = 0;
  /// Cap on permissions granted by any single mined role; 0 = unlimited.
  std::size_t max_perms_per_role = 0;

  /// Bi-objective cost weights: the emitted plan minimizes
  /// role_weight * roles + edge_weight * edges over a fixed portfolio of
  /// greedy passes, so raising edge_weight never increases the plan's edge
  /// count (see the pipeline comment). Both must be >= 0 and not both 0.
  /// The default (1, 0) minimizes role count alone.
  double role_weight = 1.0;
  double edge_weight = 0.0;

  /// Candidate-pool cap forwarded to the biclique enumerator (0 = unlimited).
  std::size_t max_candidates = 50'000;

  /// Hard deadline over the whole pipeline (0 = unlimited). Expiry truncates
  /// enumeration / selection; the emitted plan is still complete and
  /// verified — it is just less optimized.
  double time_budget_s = 0.0;

  /// The `threads` knob convention (util/thread_pool.hpp).
  std::size_t threads = 1;

  /// Row-kernel backend for the UPA class matrix (kernel throughput only;
  /// plans are identical for every choice).
  linalg::RowBackend backend = linalg::RowBackend::kAuto;
};

/// One role of the mined decomposition.
struct MinedRole {
  std::string name;                     ///< original name when the role is unchanged
  std::vector<core::Id> permissions;    ///< sorted permission ids
  std::vector<core::Id> users;          ///< sorted user ids
};

struct MiningStats {
  std::size_t users = 0;
  std::size_t permissions = 0;
  std::size_t user_classes = 0;   ///< distinct non-empty permission sets
  std::size_t upa_cells = 0;      ///< effective user-permission pairs

  std::size_t roles_before = 0;
  std::size_t roles_after = 0;
  std::size_t assignments_before = 0;  ///< distinct RUAM edges
  std::size_t assignments_after = 0;
  std::size_t grants_before = 0;       ///< distinct RPAM edges
  std::size_t grants_after = 0;

  std::size_t candidates = 0;          ///< closed sets enumerated
  std::size_t candidate_pool = 0;      ///< after cap-chunking + dedup
  bool enumeration_truncated = false;  ///< candidate cap or deadline hit
  bool selection_truncated = false;    ///< deadline cut the winning greedy loop
  std::size_t portfolio_plans = 0;     ///< greedy passes scalarized over
  std::size_t selected_candidates = 0; ///< roles taken from the pool (winner)
  std::size_t mopup_roles = 0;         ///< residual roles added for coverage
  std::size_t pruned_assignments = 0;  ///< redundant class->role edges removed
  std::size_t pruned_roles = 0;        ///< roles emptied by pruning
  /// The duplicate-merge consolidation of the input beat every greedy pass
  /// under the user's weights and was emitted instead (see pipeline step 6:
  /// the emitted plan is never worse than that baseline).
  bool used_duplicate_merge_fallback = false;

  double enumerate_seconds = 0.0;
  double select_seconds = 0.0;
  double verify_seconds = 0.0;

  /// Fraction of roles removed: 1 - after/before (0 when roles_before == 0).
  /// Negative when a heavily edge-weighted cost traded role count away for
  /// fewer edges.
  [[nodiscard]] double role_reduction() const noexcept {
    return roles_before == 0
               ? 0.0
               : (static_cast<double>(roles_before) - static_cast<double>(roles_after)) /
                     static_cast<double>(roles_before);
  }
  /// Total role->user + role->permission edges before / after.
  [[nodiscard]] std::size_t edges_before() const noexcept {
    return assignments_before + grants_before;
  }
  [[nodiscard]] std::size_t edges_after() const noexcept {
    return assignments_after + grants_after;
  }
};

/// A complete mined decomposition plus how it was obtained.
struct MiningPlan {
  MiningOptions options;
  std::vector<MinedRole> roles;
  MiningStats stats;

  /// Human-readable summary (role counts, edge counts, constraint state).
  [[nodiscard]] std::string to_text() const;
};

/// Mines a role decomposition. Throws std::invalid_argument on invalid
/// weights or infeasible caps. Deterministic for fixed options (any thread
/// count, any backend) as long as no deadline fires.
[[nodiscard]] MiningPlan plan_mining(const core::RbacDataset& dataset,
                                     const MiningOptions& options);

/// Rebuilds the dataset with users and permissions verbatim and the plan's
/// roles as the only roles.
[[nodiscard]] core::RbacDataset apply_mining(const core::RbacDataset& dataset,
                                             const MiningPlan& plan);

struct MiningOutcome {
  MiningPlan plan;
  core::RbacDataset migrated;
  bool verified = false;  ///< core::verify_equivalence(input, migrated)
};

/// plan_mining + apply_mining + verify_equivalence in one call.
[[nodiscard]] MiningOutcome mine(const core::RbacDataset& dataset, const MiningOptions& options);

}  // namespace rolediet::mining
