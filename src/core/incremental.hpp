// Incremental auditing — maintaining inefficiency findings under live
// assignment changes.
//
// The paper's motivation is operational: "authorization checks persist
// throughout the year" and the cleanup job re-runs periodically. Between
// full audits, an IAM system keeps mutating (hires, transfers, permission
// grants). This module keeps the cheap findings *continuously* up to date so
// operators see inefficiency drift without re-running the full pipeline:
//
//  - taxonomy types 1-3 (standalone / one-sided / single-assignment) are
//    maintained exactly, O(log row) per edge mutation;
//  - type 4 (same users / same permissions) is maintained exactly via the
//    same digest-bucket structure the role-diet finder uses, O(log row) per
//    mutation + O(bucket) on group queries;
//  - type 5 (similar) is intentionally NOT maintained here — a single edge
//    flip can restructure similarity groups globally, so this class only
//    tracks *which roles mutated*; core::AuditEngine layers a dirty-frontier
//    re-verification of type 5 on top (see engine.hpp), and the framework's
//    batch detection remains available on snapshot().
//
// Consistency contract (tested property): after any mutation sequence, the
// incremental results equal a fresh batch audit of snapshot().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/detector.hpp"
#include "core/group_finder.hpp"
#include "core/model.hpp"
#include "core/taxonomy.hpp"

namespace rolediet::core {

class IncrementalAuditor {
 public:
  /// Starts from whole name tables and compiled RUAM (roles x users) / RPAM
  /// (roles x permissions), copying every role's rows in bulk: one degree
  /// pass per axis, one digest per non-empty row. Row validity is the
  /// matrices' own (CsrMatrix::from_csr); throws std::invalid_argument when a
  /// matrix's shape disagrees with the tables.
  IncrementalAuditor(NameTable users, NameTable roles, NameTable perms,
                     const linalg::CsrMatrix& ruam, const linalg::CsrMatrix& rpam);

  /// Starts from an existing dataset: its name tables and compiled matrices.
  explicit IncrementalAuditor(const RbacDataset& snapshot);

  /// Starts empty.
  IncrementalAuditor() = default;

  // ---- entity management (ids are dense, append-only) --------------------
  // Names are unique keys: adding a name that already exists is a no-op that
  // returns the *existing* id — entities are never duplicated, renamed, or
  // reset by a repeated add. Journals therefore replay idempotently: an
  // `add-role` record for a known role cannot fork a second copy of it.
  Id add_user(std::string_view name);
  Id add_role(std::string_view name);
  Id add_permission(std::string_view name);

  /// Id lookup by exact name; nullopt when the name was never added. The
  /// journal applier uses these to make revocations of unknown names no-ops.
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
  [[nodiscard]] std::size_t num_roles() const noexcept { return roles_.size(); }
  [[nodiscard]] std::size_t num_permissions() const noexcept { return perm_names_.size(); }

  /// Name lookup by id (RbacDataset-compatible accessors; core/digest.hpp
  /// digests both representations through one template).
  [[nodiscard]] const std::string& user_name(Id user) const { return user_names_.name(user); }
  [[nodiscard]] const std::string& role_name(Id role) const { return role_names_.name(role); }
  [[nodiscard]] const std::string& permission_name(Id perm) const {
    return perm_names_.name(perm);
  }

  /// Whole name tables, in id order.
  [[nodiscard]] const NameTable& user_table() const noexcept { return user_names_; }
  [[nodiscard]] const NameTable& role_table() const noexcept { return role_names_; }
  [[nodiscard]] const NameTable& permission_table() const noexcept { return perm_names_; }

  /// Current sorted user / permission set of a role (live view; invalidated
  /// by the next mutation of that role).
  [[nodiscard]] const std::vector<Id>& users_of_role(Id role) const {
    return roles_.at(role).users;
  }
  [[nodiscard]] const std::vector<Id>& permissions_of_role(Id role) const {
    return roles_.at(role).perms;
  }
  /// Number of roles currently assigned to `user`.
  [[nodiscard]] std::size_t user_degree(Id user) const { return user_degree_.at(user); }
  [[nodiscard]] std::size_t permission_degree(Id perm) const { return perm_degree_.at(perm); }
  /// All degrees in id order: the column degrees of RUAM / RPAM.
  [[nodiscard]] std::span<const std::size_t> user_degrees() const noexcept { return user_degree_; }
  [[nodiscard]] std::span<const std::size_t> permission_degrees() const noexcept {
    return perm_degree_;
  }

  // ---- edge mutations ------------------------------------------------------
  /// Adds the edge; returns false when it already existed (no-op).
  bool assign_user(Id role, Id user);
  bool grant_permission(Id role, Id perm);
  /// Removes the edge; returns false when it did not exist (no-op).
  bool revoke_user(Id role, Id user);
  bool revoke_permission(Id role, Id perm);

  // ---- maintained findings -------------------------------------------------
  /// Types 1-3, identical to detect_structural() on snapshot().
  [[nodiscard]] StructuralFindings structural() const;

  /// Type 4, identical to the role-diet finder on snapshot()'s RUAM/RPAM.
  /// With `work`, fills delta-audit counters: rows_processed = roles visited
  /// in multi-member digest buckets, pairs_evaluated = exact comparisons
  /// against class representatives, pairs_matched = merges = placements into
  /// an existing class (each is a spanning union), merge_conflicts = 0.
  [[nodiscard]] RoleGroups same_user_groups(FinderWorkStats* work = nullptr) const;
  [[nodiscard]] RoleGroups same_permission_groups(FinderWorkStats* work = nullptr) const;

  /// The current rows compiled as RUAM (roles x users) / RPAM (roles x
  /// permissions): the sorted rows concatenated, with no pair list or sort.
  [[nodiscard]] linalg::CsrMatrix compile_ruam() const;
  [[nodiscard]] linalg::CsrMatrix compile_rpam() const;

  /// Materializes the current state as an immutable dataset (for batch
  /// type-5 detection, consolidation, or export) in bulk: copies of the name
  /// tables plus the compiled matrices (RbacDataset::from_compiled).
  [[nodiscard]] RbacDataset snapshot() const;

  /// snapshot() behind a stable shared handle — the dataset half of a
  /// published EngineVersion (core/engine_version.hpp): readers keep the
  /// copy alive independent of this auditor's lifetime.
  [[nodiscard]] std::shared_ptr<const RbacDataset> snapshot_shared() const {
    return std::make_shared<const RbacDataset>(snapshot());
  }

 private:
  struct RoleState {
    std::vector<Id> users;  ///< sorted
    std::vector<Id> perms;  ///< sorted
  };

  /// Digest-bucket index over one axis of all roles.
  class AxisIndex {
   public:
    void insert(std::size_t role, std::uint64_t digest);
    void erase(std::size_t role, std::uint64_t digest);
    /// Groups of >= 2 roles with equal digests, split by exact equality via
    /// `equal(a, b)`; canonical form. With `work`, fills the counters
    /// documented on same_user_groups().
    template <typename Equal>
    [[nodiscard]] RoleGroups groups(Equal&& equal, FinderWorkStats* work = nullptr) const {
      RoleGroups out;
      for (const auto& [digest, members] : buckets_) {
        if (members.size() < 2) continue;
        if (work != nullptr) work->rows_processed += members.size();
        std::vector<std::vector<std::size_t>> classes;
        for (std::size_t role : members) {
          bool placed = false;
          for (auto& cls : classes) {
            if (work != nullptr) ++work->pairs_evaluated;
            if (equal(cls.front(), role)) {
              cls.push_back(role);
              placed = true;
              break;
            }
          }
          if (placed && work != nullptr) {
            ++work->pairs_matched;  // every placement is a spanning union
            ++work->merges;
          }
          if (!placed) classes.push_back({role});
        }
        for (auto& cls : classes) {
          if (cls.size() >= 2) out.groups.push_back(std::move(cls));
        }
      }
      out.normalize();
      return out;
    }

   private:
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets_;
  };

  /// Applies a sorted-vector insert/erase and reindexes the role's digest on
  /// the given axis. Returns false when the edge state was already as
  /// requested.
  bool mutate(Id role, Id entity, std::vector<Id> RoleState::* axis, AxisIndex& index,
              std::vector<std::size_t>& degrees, bool add);

  [[nodiscard]] linalg::CsrMatrix compile(std::vector<Id> RoleState::* axis,
                                          std::size_t cols) const;

  NameTable user_names_;
  NameTable role_names_;
  NameTable perm_names_;
  std::vector<RoleState> roles_;  ///< indexed by role id, parallel to role_names_

  std::vector<std::size_t> user_degree_;  ///< roles per user
  std::vector<std::size_t> perm_degree_;  ///< roles per permission

  AxisIndex user_axis_;  ///< digests of non-empty user sets
  AxisIndex perm_axis_;  ///< digests of non-empty permission sets
};

}  // namespace rolediet::core
