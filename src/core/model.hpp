// RBAC data model: the tripartite graph of users, roles, and permissions.
//
// Mirrors §III of the paper: the access-control state is a tripartite graph
// whose edges connect roles to users (assignments) and roles to permissions
// (grants). Because edges never connect users to permissions directly, the
// full adjacency matrix is never materialized; the graph is stored as the two
// sub-matrices RUAM (roles x users) and RPAM (roles x permissions), needing
// r*(u+p) cells instead of (r+u+p)^2 — and sparse storage shrinks that
// further.
//
// The dataset interns entity names to dense ids (users, roles, permissions
// each get their own id space, 0-based, one NameTable each) and compiles edge
// lists into sparse matrices on demand. Mutation invalidates the compiled
// matrices; compilation is cached until the next mutation. Engines hand their
// state back in bulk (RbacDataset::from_compiled): whole name tables plus
// already-compiled rows, with no re-interning and no compile sort.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace rolediet::core {

using Id = std::uint32_t;

/// Node categories of the tripartite graph.
enum class NodeKind { kUser, kRole, kPermission };

[[nodiscard]] std::string_view to_string(NodeKind kind) noexcept;

/// The names of one entity kind in id order, plus an open-addressing index
/// from name to id: power-of-two slots, linear probing, load at most 1/2.
/// Ids are dense and append-only. A copy is two flat vector copies, which is
/// what lets datasets and engines hand their names to each other in bulk.
class NameTable {
 public:
  /// Names one batch round resolves (see the batch intern).
  static constexpr std::size_t kBatch = 64;

  /// The name's id, and whether this call added it (false: already known).
  /// Copies the name only when it is new.
  std::pair<Id, bool> intern(std::string_view name);
  /// Interns `names` in order and writes their ids to `ids` (same size):
  /// the ids one intern() call per name would give. Each round of kBatch
  /// names hashes them all and prefetches their home slots, then prefetches
  /// the name each occupied home slot holds, then resolves them in order, so
  /// a round's two dependent cache misses per name overlap instead of
  /// queueing. Throws std::invalid_argument when the sizes differ.
  void intern(std::span<const std::string_view> names, std::span<Id> ids);
  /// Id of `name`; nullopt if unknown.
  [[nodiscard]] std::optional<Id> find(std::string_view name) const noexcept;
  /// Name of `id`; throws std::out_of_range on an unknown id.
  [[nodiscard]] const std::string& name(Id id) const { return names_.at(id); }
  [[nodiscard]] std::span<const std::string> names() const noexcept { return names_; }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  /// Makes room for `n` names without a further rehash.
  void reserve(std::size_t n);

 private:
  static constexpr Id kEmptySlot = ~Id{0};
  [[nodiscard]] static std::size_t hash(std::string_view name) noexcept;
  /// The slot holding `name`'s id, or the empty slot it would go in, probing
  /// from `name`'s hash. Precondition: slots_ is non-empty.
  [[nodiscard]] std::size_t probe(std::string_view name, std::size_t hash) const noexcept;
  /// Grows the slots so that `n` more names fit under the load limit.
  void make_room(std::size_t n);
  /// intern() once make_room(1) has run.
  std::pair<Id, bool> insert(std::string_view name, std::size_t hash);
  void rehash(std::size_t slots);

  std::vector<std::string> names_;
  std::vector<Id> slots_;  ///< kEmptySlot or an id; size 0 or a power of two
};

class RbacDataset {
 public:
  RbacDataset() = default;

  /// Builds a dataset in bulk from whole name tables and compiled RUAM/RPAM
  /// (rows = roles, columns = users / permissions). The matrices become the
  /// compiled caches and the raw edge lists are their rows in row order, so
  /// the result equals adding every name and edge one call at a time. Row
  /// validity is the matrices' own (CsrMatrix::from_csr); throws
  /// std::invalid_argument when a matrix's shape disagrees with the tables.
  [[nodiscard]] static RbacDataset from_compiled(NameTable users, NameTable roles,
                                                 NameTable perms, linalg::CsrMatrix ruam,
                                                 linalg::CsrMatrix rpam);

  // ---- entity management -------------------------------------------------

  /// Interns a user by name; returns the existing id if already present.
  Id add_user(std::string_view name);
  /// Interns a role by name; returns the existing id if already present.
  Id add_role(std::string_view name);
  /// Interns a permission by name; returns the existing id if already present.
  Id add_permission(std::string_view name);
  /// Interns `names` in order as entities of `kind`, a batch at a time.
  void add_entities(NodeKind kind, std::span<const std::string_view> names);

  /// Creates `n` anonymous entities named "<prefix><index>"; returns the id
  /// of the first. Used by generators to bulk-create entities cheaply.
  Id add_users(std::size_t n, std::string_view prefix = "U");
  Id add_roles(std::size_t n, std::string_view prefix = "R");
  Id add_permissions(std::size_t n, std::string_view prefix = "P");

  [[nodiscard]] std::size_t num_users() const noexcept { return users_.size(); }
  [[nodiscard]] std::size_t num_roles() const noexcept { return roles_.size(); }
  [[nodiscard]] std::size_t num_permissions() const noexcept { return perms_.size(); }

  [[nodiscard]] const std::string& user_name(Id user) const { return users_.name(user); }
  [[nodiscard]] const std::string& role_name(Id role) const { return roles_.name(role); }
  [[nodiscard]] const std::string& permission_name(Id perm) const { return perms_.name(perm); }

  /// Whole name tables, for bulk copies into engine state.
  [[nodiscard]] const NameTable& user_table() const noexcept { return users_; }
  [[nodiscard]] const NameTable& role_table() const noexcept { return roles_; }
  [[nodiscard]] const NameTable& permission_table() const noexcept { return perms_; }

  /// Id lookup by name; nullopt if unknown.
  [[nodiscard]] std::optional<Id> find_user(std::string_view name) const;
  [[nodiscard]] std::optional<Id> find_role(std::string_view name) const;
  [[nodiscard]] std::optional<Id> find_permission(std::string_view name) const;

  // ---- edge management ---------------------------------------------------

  /// Assigns `user` to `role` (RUAM edge). Duplicate edges collapse at
  /// compile time. Throws std::out_of_range on unknown ids.
  void assign_user(Id role, Id user);
  /// Grants `perm` to `role` (RPAM edge).
  void grant_permission(Id role, Id perm);

  /// By name, in bulk: for each i, what add_role(roles[i]), add_user(users[i])
  /// and assign_user on their ids do, with the names resolved a batch at a
  /// time. Throws std::invalid_argument when the sizes differ.
  void assign_users(std::span<const std::string_view> roles,
                    std::span<const std::string_view> users);
  /// The same for grants: add_role, add_permission, grant_permission.
  void grant_permissions(std::span<const std::string_view> roles,
                         std::span<const std::string_view> perms);

  [[nodiscard]] std::size_t num_user_assignments() const noexcept {
    return role_user_edges_.size();
  }
  [[nodiscard]] std::size_t num_permission_grants() const noexcept {
    return role_perm_edges_.size();
  }

  /// Raw edge lists (may contain duplicates until compiled).
  [[nodiscard]] std::span<const std::pair<Id, Id>> role_user_edges() const noexcept {
    return role_user_edges_;
  }
  [[nodiscard]] std::span<const std::pair<Id, Id>> role_permission_edges() const noexcept {
    return role_perm_edges_;
  }

  // ---- compiled matrices -------------------------------------------------

  /// Role-User Assignment Matrix: rows = roles, cols = users.
  /// Compiles (and caches) on first call after a mutation.
  [[nodiscard]] const linalg::CsrMatrix& ruam() const;

  /// Role-Permission Assignment Matrix: rows = roles, cols = permissions.
  [[nodiscard]] const linalg::CsrMatrix& rpam() const;

  /// Compiles every lazy matrix cache now. The lazy compilation makes the
  /// const accessors non-thread-safe on a cold dataset; a dataset that will
  /// be read from multiple threads (a published EngineVersion's snapshot)
  /// must be warmed by its single owner first — after that, all const
  /// access is genuinely read-only.
  void warm_caches() const;

  /// Users assigned to `role` (sorted ids).
  [[nodiscard]] std::span<const std::uint32_t> users_of_role(Id role) const {
    return ruam().row(role);
  }
  /// Permissions granted to `role` (sorted ids).
  [[nodiscard]] std::span<const std::uint32_t> permissions_of_role(Id role) const {
    return rpam().row(role);
  }

  /// The exact permission set reachable by `user` — union over its roles —
  /// as a sorted unique vector. O(total grants of the user's roles).
  [[nodiscard]] std::vector<Id> permissions_of_user(Id user) const;

 private:
  void invalidate() noexcept {
    ruam_cache_.reset();
    rpam_cache_.reset();
    user_roles_cache_.reset();
  }

  NameTable& table(NodeKind kind) noexcept;
  void add_edges(std::span<const std::string_view> roles, std::span<const std::string_view> names,
                 NameTable& columns, std::vector<std::pair<Id, Id>>& edges);

  NameTable users_;
  NameTable roles_;
  NameTable perms_;

  std::vector<std::pair<Id, Id>> role_user_edges_;  // (role, user)
  std::vector<std::pair<Id, Id>> role_perm_edges_;  // (role, permission)

  mutable std::optional<linalg::CsrMatrix> ruam_cache_;
  mutable std::optional<linalg::CsrMatrix> rpam_cache_;
  mutable std::optional<linalg::CsrMatrix> user_roles_cache_;  // transpose of RUAM
};

}  // namespace rolediet::core
