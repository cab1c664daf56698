#include "core/model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <stdexcept>

namespace rolediet::core {

std::string_view to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kUser: return "user";
    case NodeKind::kRole: return "role";
    case NodeKind::kPermission: return "permission";
  }
  return "?";
}

// ------------------------------------------------------------- NameTable ---

std::size_t NameTable::hash(std::string_view name) noexcept {
  return std::hash<std::string_view>{}(name);
}

std::pair<Id, bool> NameTable::intern(std::string_view name) {
  make_room(1);
  return insert(name, hash(name));
}

void NameTable::intern(std::span<const std::string_view> names, std::span<Id> ids) {
  if (names.size() != ids.size())
    throw std::invalid_argument("NameTable::intern: names and ids differ in size");
  std::array<std::size_t, kBatch> hashes{};
  for (std::size_t base = 0; base < names.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, names.size() - base);
    const std::span<const std::string_view> round = names.subspan(base, n);
    // Room for the whole round first, so no rehash moves a slot between its
    // prefetch and its probe.
    make_room(n);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
      hashes[i] = hash(round[i]);
      __builtin_prefetch(&slots_[hashes[i] & mask]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Id id = slots_[hashes[i] & mask];
      if (id != kEmptySlot) __builtin_prefetch(&names_[id]);
    }
    for (std::size_t i = 0; i < n; ++i) ids[base + i] = insert(round[i], hashes[i]).first;
  }
}

std::pair<Id, bool> NameTable::insert(std::string_view name, std::size_t hash) {
  const std::size_t slot = probe(name, hash);
  if (slots_[slot] != kEmptySlot) return {slots_[slot], false};
  if (names_.size() >= kEmptySlot) throw std::length_error("NameTable: id space exhausted");
  const Id id = static_cast<Id>(names_.size());
  names_.emplace_back(name);
  slots_[slot] = id;
  return {id, true};
}

std::optional<Id> NameTable::find(std::string_view name) const noexcept {
  if (slots_.empty()) return std::nullopt;
  const Id id = slots_[probe(name, hash(name))];
  if (id == kEmptySlot) return std::nullopt;
  return id;
}

void NameTable::reserve(std::size_t n) {
  names_.reserve(n);
  if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
}

void NameTable::make_room(std::size_t n) {
  const std::size_t need = 2 * (names_.size() + n);
  if (need > slots_.size())
    rehash(std::max({std::size_t{16}, 2 * slots_.size(), std::bit_ceil(need)}));
}

std::size_t NameTable::probe(std::string_view name, std::size_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Id id = slots_[slot];
    if (id == kEmptySlot || names_[id] == name) return slot;
  }
}

void NameTable::rehash(std::size_t slots) {
  slots_.assign(slots, kEmptySlot);
  for (Id id = 0; id < names_.size(); ++id) slots_[probe(names_[id], hash(names_[id]))] = id;
}

// ----------------------------------------------------------- RbacDataset ---

namespace {

Id bulk_add(std::size_t n, std::string_view prefix, NameTable& names) {
  const Id first = static_cast<Id>(names.size());
  names.reserve(names.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [id, added] = names.intern(std::string(prefix) + std::to_string(first + i));
    if (!added)
      throw std::invalid_argument("bulk add collides with existing entity: " + names.name(id));
  }
  return first;
}

/// Appends a compiled matrix's entries as (row, column) edges in row order.
void append_rows(const linalg::CsrMatrix& m, std::vector<std::pair<Id, Id>>& edges) {
  edges.reserve(m.nnz());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::uint32_t c : m.row(r)) edges.emplace_back(static_cast<Id>(r), c);
  }
}

}  // namespace

RbacDataset RbacDataset::from_compiled(NameTable users, NameTable roles, NameTable perms,
                                       linalg::CsrMatrix ruam, linalg::CsrMatrix rpam) {
  if (ruam.rows() != roles.size() || ruam.cols() != users.size() ||
      rpam.rows() != roles.size() || rpam.cols() != perms.size()) {
    throw std::invalid_argument(
        "RbacDataset::from_compiled: matrix shape disagrees with the name tables");
  }
  RbacDataset out;
  out.users_ = std::move(users);
  out.roles_ = std::move(roles);
  out.perms_ = std::move(perms);
  append_rows(ruam, out.role_user_edges_);
  append_rows(rpam, out.role_perm_edges_);
  out.ruam_cache_ = std::move(ruam);
  out.rpam_cache_ = std::move(rpam);
  return out;
}

Id RbacDataset::add_user(std::string_view name) {
  const auto [id, added] = users_.intern(name);
  if (added) invalidate();
  return id;
}

Id RbacDataset::add_role(std::string_view name) {
  const auto [id, added] = roles_.intern(name);
  if (added) invalidate();
  return id;
}

Id RbacDataset::add_permission(std::string_view name) {
  const auto [id, added] = perms_.intern(name);
  if (added) invalidate();
  return id;
}

NameTable& RbacDataset::table(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kUser: return users_;
    case NodeKind::kRole: return roles_;
    case NodeKind::kPermission: return perms_;
  }
  return users_;
}

void RbacDataset::add_entities(NodeKind kind, std::span<const std::string_view> names) {
  NameTable& entities = table(kind);
  const std::size_t before = entities.size();
  std::array<Id, NameTable::kBatch> ids{};
  for (std::size_t base = 0; base < names.size(); base += NameTable::kBatch) {
    const std::size_t n = std::min(NameTable::kBatch, names.size() - base);
    entities.intern(names.subspan(base, n), std::span(ids).first(n));
  }
  if (entities.size() != before) invalidate();
}

Id RbacDataset::add_users(std::size_t n, std::string_view prefix) {
  invalidate();
  return bulk_add(n, prefix, users_);
}

Id RbacDataset::add_roles(std::size_t n, std::string_view prefix) {
  invalidate();
  return bulk_add(n, prefix, roles_);
}

Id RbacDataset::add_permissions(std::size_t n, std::string_view prefix) {
  invalidate();
  return bulk_add(n, prefix, perms_);
}

std::optional<Id> RbacDataset::find_user(std::string_view name) const {
  return users_.find(name);
}
std::optional<Id> RbacDataset::find_role(std::string_view name) const {
  return roles_.find(name);
}
std::optional<Id> RbacDataset::find_permission(std::string_view name) const {
  return perms_.find(name);
}

void RbacDataset::assign_user(Id role, Id user) {
  if (role >= num_roles()) throw std::out_of_range("assign_user: unknown role id");
  if (user >= num_users()) throw std::out_of_range("assign_user: unknown user id");
  role_user_edges_.emplace_back(role, user);
  invalidate();
}

void RbacDataset::grant_permission(Id role, Id perm) {
  if (role >= num_roles()) throw std::out_of_range("grant_permission: unknown role id");
  if (perm >= num_permissions()) throw std::out_of_range("grant_permission: unknown permission id");
  role_perm_edges_.emplace_back(role, perm);
  invalidate();
}

void RbacDataset::assign_users(std::span<const std::string_view> roles,
                               std::span<const std::string_view> users) {
  add_edges(roles, users, users_, role_user_edges_);
}

void RbacDataset::grant_permissions(std::span<const std::string_view> roles,
                                    std::span<const std::string_view> perms) {
  add_edges(roles, perms, perms_, role_perm_edges_);
}

void RbacDataset::add_edges(std::span<const std::string_view> roles,
                            std::span<const std::string_view> names, NameTable& columns,
                            std::vector<std::pair<Id, Id>>& edges) {
  if (roles.size() != names.size())
    throw std::invalid_argument("RbacDataset: edge name lists differ in size");
  std::array<Id, NameTable::kBatch> role_ids{};
  std::array<Id, NameTable::kBatch> column_ids{};
  for (std::size_t base = 0; base < roles.size(); base += NameTable::kBatch) {
    const std::size_t n = std::min(NameTable::kBatch, roles.size() - base);
    roles_.intern(roles.subspan(base, n), std::span(role_ids).first(n));
    columns.intern(names.subspan(base, n), std::span(column_ids).first(n));
    for (std::size_t i = 0; i < n; ++i) edges.emplace_back(role_ids[i], column_ids[i]);
  }
  if (!roles.empty()) invalidate();
}

const linalg::CsrMatrix& RbacDataset::ruam() const {
  if (!ruam_cache_) {
    ruam_cache_ = linalg::CsrMatrix::from_pairs(num_roles(), num_users(), role_user_edges_);
  }
  return *ruam_cache_;
}

const linalg::CsrMatrix& RbacDataset::rpam() const {
  if (!rpam_cache_) {
    rpam_cache_ = linalg::CsrMatrix::from_pairs(num_roles(), num_permissions(), role_perm_edges_);
  }
  return *rpam_cache_;
}

void RbacDataset::warm_caches() const {
  (void)ruam();
  (void)rpam();
  if (!user_roles_cache_) user_roles_cache_ = ruam().transpose();
}

std::vector<Id> RbacDataset::permissions_of_user(Id user) const {
  if (user >= num_users()) throw std::out_of_range("permissions_of_user: unknown user id");
  if (!user_roles_cache_) user_roles_cache_ = ruam().transpose();

  std::vector<Id> perms;
  for (std::uint32_t role : user_roles_cache_->row(user)) {
    const auto grants = rpam().row(role);
    perms.insert(perms.end(), grants.begin(), grants.end());
  }
  std::sort(perms.begin(), perms.end());
  perms.erase(std::unique(perms.begin(), perms.end()), perms.end());
  return perms;
}

}  // namespace rolediet::core
