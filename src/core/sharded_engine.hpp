// Sharded audit engine: range-partitioned shards + cross-shard pair exchange.
//
// AuditEngine holds the whole dataset in one IncrementalAuditor; past a few
// million users the working set (and the similar-phase candidate structures)
// outgrow one coordinator. ShardedEngine splits the *role axis* into S
// shards — contiguous gid ranges for the construction-time roles, round-robin
// for roles interned later — and keeps per-shard row storage while one thin
// coordinator owns the name interner, degree counters, and version counter.
// Each shard's rows can be served from an mmap'd read-only body image
// (store/body.hpp) with a copy-on-write overlay for mutated roles, so a
// recovered store only materializes the rows churn actually touched.
//
// reaudit() merges per-shard findings into one AuditReport:
//  - types 1-3 come from the coordinator's degree/norm counters;
//  - type 4 is a digest-bucket equality partition over all shards (identical
//    to IncrementalAuditor's maintained index and to every exact finder's
//    find_same);
//  - type 5 runs the configured batch finder *per shard* (shard-local pair
//    pipeline over a transient matrix with global column ids), then a
//    cross-shard candidate exchange where only compact signatures travel —
//    MinHash band digests for kApproxMinhash, hashed column buckets for the
//    exact methods, plus the tiny-row norm sweep — and exact-verifies the
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
// every cross-shard matched pair either shares a column (caught by the
// column-bucket / band-digest exchange) or has norm sum <= threshold (caught
// by the global tiny sweep); only exactly-verified pairs are ever united, so
// no false positives can appear either.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"  // RbacDelta / Mutation
#include "core/framework.hpp"
#include "core/model.hpp"
#include "linalg/csr_matrix.hpp"

namespace rolediet::core {

/// Per-phase counters of the sharded similar pipeline, for the Fig.2-style
/// shard sweep (bench_shard): how much work stayed shard-local versus how
/// many candidates had to cross shards.
struct ShardSimilarStats {
  /// Candidate pairs each shard's local finder evaluated (index = shard).
  std::vector<std::uint64_t> local_pairs_evaluated;
  /// Signature entries published into the exchange (band digests or hashed
  /// column buckets) — the bytes that actually travel between shards.
  std::uint64_t exchanged_signatures = 0;
  /// Distinct cross-shard candidate pairs gathered for exact verification.
  std::uint64_t cross_candidates = 0;
  /// Cross-shard candidates that passed the exact predicate.
  std::uint64_t cross_matched = 0;
  /// Tiny-row pairs united by the global norm sweep.
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
  /// and read-only base row views for both axes — typically served from an
  /// mmap'd store/body.hpp file that must outlive the engine. Views may cover
  /// fewer rows than `roles` has entries only if the missing tail is empty.
  struct ShardImage {
    std::vector<Id> roles;
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

  /// Copies the snapshot's structure into `shards` range partitions. Throws
  /// std::invalid_argument on zero shards or invalid options.
  ShardedEngine(const RbacDataset& snapshot, std::size_t shards, AuditOptions options = {});

  /// Restores from per-shard images (store recovery path). The images must
  /// form the exact partition a ShardedEngine with `initial_roles`
  /// construction-time roles would produce; validated, std::invalid_argument
  /// on mismatch. Base views are referenced, not copied — mutation of a role
  /// copies its row into the overlay first.
  ShardedEngine(std::vector<std::string> user_names, std::vector<std::string> role_names,
                std::vector<std::string> perm_names, std::vector<ShardImage> images,
                std::size_t initial_roles, std::uint64_t version, std::uint64_t audits,
                AuditOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- mutations (AuditEngine-compatible semantics) -----------------------

  /// Applies the batch in order by name; same effectiveness and version
  /// semantics as AuditEngine::apply (revocations of unknown names no-op).
  void apply(const RbacDelta& delta);

  Id add_user(std::string name);
  Id add_role(std::string name);
  Id add_permission(std::string name);

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
  [[nodiscard]] RbacDataset snapshot() const;

  // ---- lookups ------------------------------------------------------------

  [[nodiscard]] std::optional<Id> find_user(std::string_view name) const {
    return user_names_.find(name);
  }
  [[nodiscard]] std::optional<Id> find_role(std::string_view name) const {
    return role_names_.find(name);
  }
  [[nodiscard]] std::optional<Id> find_permission(std::string_view name) const {
    return perm_names_.find(name);
  }

  [[nodiscard]] std::size_t num_users() const noexcept { return user_names_.size(); }
  [[nodiscard]] std::size_t num_roles() const noexcept { return role_names_.size(); }
  [[nodiscard]] std::size_t num_permissions() const noexcept { return perm_names_.size(); }

  [[nodiscard]] const std::string& user_name(Id user) const { return user_names_.name(user); }
  [[nodiscard]] const std::string& role_name(Id role) const { return role_names_.name(role); }
  [[nodiscard]] const std::string& permission_name(Id perm) const {
    return perm_names_.name(perm);
  }

  /// Current sorted user / permission set of a role (live until the role's
  /// next mutation).
  [[nodiscard]] std::span<const Id> users_of_role(Id role) const;
  [[nodiscard]] std::span<const Id> permissions_of_role(Id role) const;

  [[nodiscard]] const AuditOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
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
    return user_names_.names();
  }
  [[nodiscard]] std::span<const std::string> role_names() const noexcept {
    return role_names_.names();
  }
  [[nodiscard]] std::span<const std::string> permission_names() const noexcept {
    return perm_names_.names();
  }

 private:
  enum class AxisKind { kUsers, kPerms };

  /// One axis of one shard: an optional read-only base image plus a
  /// copy-on-write overlay for mutated / newly interned roles.
  struct ShardAxis {
    linalg::CsrView base;                   ///< snapshot rows (local index); may be empty
    std::vector<std::vector<Id>> overlay;   ///< engaged rows (local index)
    std::vector<std::uint8_t> touched;      ///< overlay[i] supersedes base row i
  };

  struct Shard {
    std::vector<Id> roles;  ///< global role ids, increasing
    ShardAxis users;
    ShardAxis perms;
  };

  [[nodiscard]] std::size_t owner_of_new_role(Id gid) const noexcept;
  void register_role_storage(Id gid);
  [[nodiscard]] std::span<const Id> row(AxisKind axis, Id role) const;
  /// Copy-on-write: the mutable overlay row for `role` on `axis`.
  [[nodiscard]] std::vector<Id>& mutable_row(AxisKind axis, Id role);
  bool mutate_edge(AxisKind axis, Id role, Id entity, bool add);
  /// One axis' current rows over every role, as a compiled matrix.
  [[nodiscard]] linalg::CsrMatrix compile(AxisKind axis) const;

  [[nodiscard]] std::uint64_t content_digest() const;
  [[nodiscard]] StructuralFindings structural() const;
  [[nodiscard]] RoleGroups equal_groups(AxisKind axis, FinderWorkStats* work) const;
  [[nodiscard]] RoleGroups all_nonempty_group(AxisKind axis) const;
  [[nodiscard]] RoleGroups sharded_similar(AxisKind axis, std::size_t threshold, bool jaccard,
                                           const util::ExecutionContext& ctx,
                                           FinderWorkStats& work, ShardSimilarStats& stats);
  [[nodiscard]] std::size_t similar_threshold_scaled() const;
  [[nodiscard]] const std::vector<std::uint32_t>& norms(AxisKind axis) const noexcept {
    return axis == AxisKind::kUsers ? users_norm_ : perms_norm_;
  }

  AuditOptions options_;
  std::size_t initial_roles_ = 0;  ///< construction-time role count (range split)

  NameTable user_names_;
  NameTable role_names_;
  NameTable perm_names_;

  std::vector<std::uint32_t> owner_;  ///< per role: owning shard
  std::vector<std::uint32_t> local_;  ///< per role: index within its shard

  std::vector<std::size_t> user_degree_;   ///< roles per user
  std::vector<std::size_t> perm_degree_;   ///< roles per permission
  std::vector<std::uint32_t> users_norm_;  ///< per role |users|
  std::vector<std::uint32_t> perms_norm_;  ///< per role |permissions|
  std::size_t total_assignments_ = 0;
  std::size_t total_grants_ = 0;

  std::vector<Shard> shards_;

  void publish_version(const AuditReport& report);

  std::uint64_t version_ = 0;
  std::uint64_t audits_ = 0;
  ShardWorkSnapshot shard_work_;
  bool publish_versions_ = false;
  VersionSlot published_;
};

}  // namespace rolediet::core
