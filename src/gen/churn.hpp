// Long-horizon organization churn: multi-year mutation streams for the
// steady-state engine and the durable store.
//
// The paper's premise is temporal — inefficiencies "accumulate over time"
// under manual administration — and gen/evolution simulates that decay one
// event at a time against a live auditor. What it cannot produce is the
// *input* of the operational pipeline: a years-long io/journal mutation
// stream that an AuditEngine / EngineStore replays with periodic re-audits
// and checkpoints. ChurnSimulator closes that gap. It composes the OrgEvent
// vocabulary into a calendar-driven phase model and emits one RbacDelta per
// simulated day, starting from an *empty* dataset (day 0 bootstraps the
// initial org), so the entire history is journal-replayable from scratch:
//
//   steady state     daily hires (org-proportional), attrition departures,
//                    transfers, and permission-sprawl drift (provisions
//                    accumulate, decommissions lag far behind)
//   reorg bursts     a window of days at each quarter boundary with
//                    elevated clone/fork/shadow-role and transfer activity —
//                    the "fragmented landscape of independent role owners"
//   onboarding waves a few times a year a tenant arrives: a prefixed block
//                    of users/roles/permissions created and wired in bulk
//   layoff events    once a year a fixed fraction of assigned employees
//                    departs in a single day (a huge delta, the dirty-
//                    frontier stress case)
//
// Streams are bit-reproducible from (config, seed): the simulator owns an
// IncrementalAuditor as ground truth and every emitted mutation is applied
// to it, so emitted revocations always name real edges and the stream
// replays through AuditEngine::apply() without no-ops (journal semantics
// stay idempotent regardless). tests/churn_replay_test.cpp replays compact
// configs through EngineStore across every method/backend/thread count;
// the churn-serve workload of perfbench/ streams 122 days of a
// 60k-employee lifecycle and reports its re-audit cost
// (`core.delta_reaudit_ms`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "util/prng.hpp"

namespace rolediet::gen {

/// Which calendar phase a simulated day belongs to (layoff and onboarding
/// take precedence over an overlapping reorg window).
enum class ChurnPhase {
  kBootstrap,       ///< day 0: initial org creation
  kSteady,          ///< baseline hiring/attrition/transfer/sprawl
  kReorgBurst,      ///< quarter-boundary reorganization window
  kOnboardingWave,  ///< tenant onboarding day
  kLayoff,          ///< annual layoff day
};

[[nodiscard]] std::string_view to_string(ChurnPhase phase) noexcept;

/// Calendar + intensity knobs. Defaults model a fast-growing 60k-employee
/// org over three years; tests shrink initial_employees (all rates are
/// org-proportional, so the same config shape works at any scale).
struct ChurnConfig {
  std::uint64_t seed = 1;
  std::size_t initial_employees = 60'000;
  std::size_t years = 3;
  std::size_t days_per_year = 365;

  /// Org shape: entities created per employee at bootstrap (and implicitly
  /// maintained by role/permission-creating events afterwards).
  double roles_per_employee = 0.05;
  double permissions_per_employee = 0.10;

  // ---- steady state (daily rates, fractions of the current employee or
  // role count; fractional expectations accumulate across days) ----------
  double daily_hire_rate = 0.0008;       ///< ~30% growth/year before attrition
  double daily_attrition_rate = 0.0005;  ///< ~17% departures/year
  double daily_transfer_rate = 0.0008;
  /// Permission-sprawl drift: new grants per role per day; a tenth of them
  /// mint a brand-new permission, and decommissions run at a quarter of the
  /// sprawl rate, so grants accumulate monotonically in expectation.
  double daily_sprawl_rate = 0.002;

  // ---- reorg bursts -----------------------------------------------------
  std::size_t reorg_burst_days = 10;  ///< window length at each quarter end
  /// Clone/fork/shadow events per day in a burst, as a fraction of roles.
  double reorg_intensity = 0.01;

  // ---- onboarding waves -------------------------------------------------
  std::size_t onboarding_waves_per_year = 2;
  double onboarding_wave_fraction = 0.01;  ///< tenant size vs current employees

  // ---- layoffs ----------------------------------------------------------
  double layoff_fraction = 0.04;  ///< assigned employees departing; 0 disables
};

/// Event totals of a finished (or in-flight) stream.
struct ChurnStats {
  std::size_t days = 0;
  std::size_t mutations = 0;
  std::size_t hires = 0;
  std::size_t departures = 0;
  std::size_t transfers = 0;
  std::size_t provisions = 0;
  std::size_t decommissions = 0;
  std::size_t role_clones = 0;
  std::size_t role_forks = 0;
  std::size_t shadow_roles = 0;
  std::size_t tenants_onboarded = 0;
  std::size_t layoff_days = 0;
};

class ChurnSimulator {
 public:
  explicit ChurnSimulator(ChurnConfig config);

  /// The mutation batch of the next simulated day. Day 0 is the bootstrap
  /// delta creating the initial org. Precondition: !done().
  [[nodiscard]] core::RbacDelta next_day();

  [[nodiscard]] bool done() const noexcept { return day_ >= days_total(); }
  [[nodiscard]] std::size_t day() const noexcept { return day_; }
  [[nodiscard]] std::size_t days_total() const noexcept {
    return config_.years * config_.days_per_year + 1;  // +1: bootstrap day
  }
  /// Calendar phase of a given day (what next_day() will do on it).
  [[nodiscard]] ChurnPhase phase_of(std::size_t day) const noexcept;

  [[nodiscard]] const ChurnStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ChurnConfig& config() const noexcept { return config_; }
  /// Ground-truth org state (everything emitted so far, applied).
  [[nodiscard]] const core::IncrementalAuditor& state() const noexcept { return org_; }

 private:
  // Emission helpers: apply to the ground-truth org AND append the
  // journal-visible mutation to the current day's delta. Edge emitters
  // assume the edge state actually changes (callers draw from live state).
  core::Id emit_user();
  core::Id emit_role();
  core::Id emit_permission();
  void emit_assign(core::Id role, core::Id user);
  void emit_revoke(core::Id role, core::Id user);
  void emit_grant(core::Id role, core::Id perm);
  void emit_revoke_grant(core::Id role, core::Id perm);

  void bootstrap();
  void steady_day();
  void reorg_day();
  void onboarding_day();
  void layoff_day();

  void hire();
  bool depart(core::Id user);
  void depart_random();
  void transfer();
  void sprawl_step();
  void decommission_step();
  void clone_role();
  void fork_role();
  void shadow_role();

  /// How many events a fractional daily expectation yields today (floor +
  /// carried remainder, deterministic).
  [[nodiscard]] std::size_t quota(double expectation, double& carry);

  [[nodiscard]] std::optional<core::Id> random_role(std::size_t min_users,
                                                    std::size_t min_perms);
  [[nodiscard]] std::optional<core::Id> random_assigned_user();

  ChurnConfig config_;
  util::Xoshiro256 rng_;
  core::IncrementalAuditor org_;
  core::RbacDelta* delta_ = nullptr;  ///< the day under construction
  ChurnStats stats_;
  std::size_t day_ = 0;
  std::size_t next_user_ = 0;
  std::size_t next_role_ = 0;
  std::size_t next_perm_ = 0;
  std::size_t next_tenant_ = 0;
  double hire_carry_ = 0.0;
  double attrition_carry_ = 0.0;
  double transfer_carry_ = 0.0;
  double sprawl_carry_ = 0.0;
  double decommission_carry_ = 0.0;
  double reorg_carry_ = 0.0;
  /// Role memberships per user and grant lists per permission, maintained so
  /// departures/decommissions revoke exactly the live edges (the auditor
  /// only exposes the role->entity direction).
  std::vector<std::vector<core::Id>> user_roles_;
  std::vector<std::vector<core::Id>> perm_roles_;
};

/// Streams a whole configured history as io/journal records into `out`
/// (one record per mutation, day batches concatenated in calendar order).
/// Returns the final stats. Throws io::CsvError on write failure.
ChurnStats write_churn_journal(std::ostream& out, const ChurnConfig& config);

}  // namespace rolediet::gen
