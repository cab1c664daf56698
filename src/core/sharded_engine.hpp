// Sharded audit engine: range-partitioned shards + cross-shard pair exchange.
//
// AuditEngine runs the similar phase over one matrix per axis; past a few
// million users those candidate structures outgrow one pipeline.
// ShardedEngine partitions the *role ids* into S shards — contiguous gid
// ranges for the construction-time roles, round-robin for roles interned
// later — and keeps the RBAC state itself exactly as AuditEngine does, in one
// IncrementalAuditor: names, rows, degrees, the type-4 digest index, the
// content digest and snapshot() all come from it. The partition is what
// sharding adds: it splits the similar phase, and the durable sharded store
// (store/sharded_store.hpp) keeps one WAL stream and one body file per shard.
//
// reaudit() builds one AuditReport:
//  - types 1-4 come from the auditor's maintained counters and digest index
//    (the same ones AuditEngine answers from);
//  - type 5 runs the configured batch finder *per shard* (shard-local pair
//    pipeline over a transient matrix with global column ids), then a
//    cross-shard candidate exchange where only compact signatures travel —
//    MinHash band digests for kApproxMinhash, each row's prefix-filter
//    tokens (core/methods/prefix_filter.hpp) for the exact methods, plus the
//    global norm-decided star — and exact-verifies the
//    gathered candidate row pairs through the existing batch kernels before
//    uniting them in a global union-find.
//
// Contract (tests/sharded_engine_test.cpp): for every method except
// kApproxHnsw, the merged report's findings are byte-identical to the
// unsharded AuditEngine's at every shard count, thread count, backend, and
// kernel dispatch target. Work counters are *not* part of the contract —
// sharding genuinely changes how much candidate work exists (that delta is
// what bench_shard measures); the differential suite zeroes them before
// comparing. Soundness argument for the candidate exchange, per method:
// every cross-shard matched pair either shares a column — then a column of
// both rows' prefixes, caught by the prefix-token exchange (MinHash: its band
// collisions) — or has norm sum <= threshold (joined by the global
// norm-decided star); only exactly-verified or norm-decided pairs are ever
// united, so no false positives can appear either.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"  // RbacDelta / Mutation, the shared engine helpers
#include "core/framework.hpp"
#include "core/incremental.hpp"
#include "core/model.hpp"
#include "linalg/csr_matrix.hpp"

namespace rolediet::core {

/// Per-phase counters of the sharded similar pipeline, for the Fig.2-style
/// shard sweep (bench_shard): how much work stayed shard-local versus how
/// many candidates had to cross shards.
struct ShardSimilarStats {
  /// Candidate pairs each shard's local finder evaluated (index = shard).
  std::vector<std::uint64_t> local_pairs_evaluated;
  /// Signature entries published into the exchange (band digests, or each
  /// row's prefix-filter tokens) — the bytes that actually travel between
  /// shards.
  std::uint64_t exchanged_signatures = 0;
  /// Distinct cross-shard candidate pairs gathered for exact verification.
  std::uint64_t cross_candidates = 0;
  /// Cross-shard candidates that passed the exact predicate.
  std::uint64_t cross_matched = 0;
  /// Norm-decided pairs the global star joins (closed-form count).
  std::uint64_t tiny_pairs = 0;
};

/// Both axes of the last reaudit()'s similar phase.
struct ShardWorkSnapshot {
  ShardSimilarStats users;
  ShardSimilarStats perms;
};

class ShardedEngine {
 public:
  /// Restore image of one shard: the roles it owns (global ids, increasing)
  /// and read-only row views for both axes — typically an mmap'd
  /// store/body.hpp file. The views are read only during the restore
  /// constructor, which copies their rows. Views may cover fewer rows than
  /// `roles` has entries only if the missing tail is empty.
  struct ShardImage {
    std::span<const Id> roles;
    linalg::CsrView users;
    linalg::CsrView perms;
  };

  /// Materialized current rows of one shard, for checkpointing (local row
  /// order, global column ids).
  struct ShardExport {
    std::vector<Id> roles;
    std::vector<std::size_t> users_row_ptr;
    std::vector<Id> users_cols;
    std::vector<std::size_t> perms_row_ptr;
    std::vector<Id> perms_cols;
  };

  /// Copies the snapshot's structure and partitions its roles into `shards`
  /// ranges. Throws std::invalid_argument on zero shards or invalid options.
  ShardedEngine(const RbacDataset& snapshot, std::size_t shards, AuditOptions options = {});

  /// Restores from per-shard images (store recovery path). The images must
  /// form the exact partition a ShardedEngine with `initial_roles`
  /// construction-time roles would produce, names must be unique per kind,
  /// and every row must be strictly increasing within its axis' entity
  /// count; std::invalid_argument otherwise. The rows are copied.
  ShardedEngine(std::vector<std::string> user_names, std::vector<std::string> role_names,
                std::vector<std::string> perm_names, std::vector<ShardImage> images,
                std::size_t initial_roles, std::uint64_t version, std::uint64_t audits,
                AuditOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- mutations (AuditEngine-compatible semantics) -----------------------

  /// Applies the batch in order by name (core::apply_delta): same
  /// effectiveness and version semantics as AuditEngine::apply.
  void apply(const RbacDelta& delta);

  /// Name-interning entity adds; a new role joins the partition.
  Id add_user(std::string_view name);
  Id add_role(std::string_view name);
  Id add_permission(std::string_view name);

  /// Id-based edge mutations; false on no-ops, std::out_of_range on unknown
  /// ids.
  bool assign_user(Id role, Id user);
  bool revoke_user(Id role, Id user);
  bool grant_permission(Id role, Id perm);
  bool revoke_permission(Id role, Id perm);

  // ---- auditing -----------------------------------------------------------

  /// Full sharded audit of the current version (see file comment). Honors
  /// options().time_budget_s exactly like AuditEngine::reaudit().
  [[nodiscard]] AuditReport reaudit();

  // ---- version publication (core/engine_version.hpp) ----------------------
  // Same contract as AuditEngine: when enabled, each completed reaudit()
  // captures an immutable EngineVersion (dataset copy + report) and swaps it
  // into the slot; readers pin it concurrently while this writer mutates.

  void set_publish_versions(bool enabled) noexcept { publish_versions_ = enabled; }
  [[nodiscard]] bool publish_versions() const noexcept { return publish_versions_; }
  [[nodiscard]] std::shared_ptr<const EngineVersion> published() const {
    return published_.load();
  }

  /// Materializes the current state as an immutable dataset.
  [[nodiscard]] RbacDataset snapshot() const { return state_.snapshot(); }

  /// Mutable live state (read-only): lookups, degrees, role contents.
  [[nodiscard]] const IncrementalAuditor& state() const noexcept { return state_; }

  // ---- lookups ------------------------------------------------------------

  [[nodiscard]] std::optional<Id> find_user(std::string_view name) const {
    return state_.find_user(name);
  }
  [[nodiscard]] std::optional<Id> find_role(std::string_view name) const {
    return state_.find_role(name);
  }
  [[nodiscard]] std::optional<Id> find_permission(std::string_view name) const {
    return state_.find_permission(name);
  }

  [[nodiscard]] std::size_t num_users() const noexcept { return state_.num_users(); }
  [[nodiscard]] std::size_t num_roles() const noexcept { return state_.num_roles(); }
  [[nodiscard]] std::size_t num_permissions() const noexcept { return state_.num_permissions(); }

  [[nodiscard]] const AuditOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shard_roles_.size(); }
  [[nodiscard]] std::size_t initial_roles() const noexcept { return initial_roles_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t audits() const noexcept { return audits_; }

  /// Which shard owns `role` (stable for the engine's lifetime).
  [[nodiscard]] std::size_t owner_shard(Id role) const { return owner_.at(role); }

  /// Per-shard work counters of the most recent reaudit()'s similar phase.
  [[nodiscard]] const ShardWorkSnapshot& last_shard_work() const noexcept {
    return shard_work_;
  }

  /// Materializes shard `s`'s current rows for a checkpoint.
  [[nodiscard]] ShardExport export_shard(std::size_t s) const;

  [[nodiscard]] std::span<const std::string> user_names() const noexcept {
    return state_.user_table().names();
  }
  [[nodiscard]] std::span<const std::string> role_names() const noexcept {
    return state_.role_table().names();
  }
  [[nodiscard]] std::span<const std::string> permission_names() const noexcept {
    return state_.permission_table().names();
  }

 private:
  enum class AxisKind { kUsers, kPerms };

  [[nodiscard]] std::size_t owner_of_new_role(Id gid) const noexcept;
  /// Appends role `gid` (the next id) to its shard.
  void register_role(Id gid);
  /// Bumps the version on an effective mutation.
  bool counted(bool changed) noexcept;
  [[nodiscard]] std::span<const Id> row(AxisKind axis, Id role) const;

  [[nodiscard]] RoleGroups all_nonempty_group(AxisKind axis) const;
  [[nodiscard]] RoleGroups sharded_similar(AxisKind axis, std::size_t threshold, bool jaccard,
                                           GroupFinder& finder,
                                           const util::ExecutionContext& ctx,
                                           FinderWorkStats& work, ShardSimilarStats& stats);

  AuditOptions options_;
  IncrementalAuditor state_;
  std::size_t initial_roles_ = 0;  ///< construction-time role count (range split)
  std::vector<std::uint32_t> owner_;          ///< per role: owning shard
  std::vector<std::vector<Id>> shard_roles_;  ///< per shard: global role ids, increasing

  std::uint64_t version_ = 0;
  std::uint64_t audits_ = 0;
  ShardWorkSnapshot shard_work_;
  bool publish_versions_ = false;
  VersionSlot published_;
};

}  // namespace rolediet::core
