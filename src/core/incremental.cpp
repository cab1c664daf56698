#include "core/incremental.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "linalg/csr_matrix.hpp"

namespace rolediet::core {

// ----------------------------------------------------------- AxisIndex ---

void IncrementalAuditor::AxisIndex::insert(std::size_t role, std::uint64_t digest) {
  buckets_[digest].push_back(role);
}

void IncrementalAuditor::AxisIndex::erase(std::size_t role, std::uint64_t digest) {
  auto it = buckets_.find(digest);
  if (it == buckets_.end()) return;
  std::erase(it->second, role);
  if (it->second.empty()) buckets_.erase(it);
}

// ---------------------------------------------------------- constructor ---

IncrementalAuditor::IncrementalAuditor(NameTable users, NameTable roles, NameTable perms,
                                       const linalg::CsrMatrix& ruam,
                                       const linalg::CsrMatrix& rpam)
    : user_names_(std::move(users)),
      role_names_(std::move(roles)),
      perm_names_(std::move(perms)),
      roles_(role_names_.size()),
      user_degree_(ruam.column_sums()),
      perm_degree_(rpam.column_sums()) {
  if (ruam.rows() != roles_.size() || ruam.cols() != user_names_.size() ||
      rpam.rows() != roles_.size() || rpam.cols() != perm_names_.size()) {
    throw std::invalid_argument(
        "IncrementalAuditor: matrix shape disagrees with the name tables");
  }
  for (std::size_t r = 0; r < roles_.size(); ++r) {
    const auto users_row = ruam.row(r);
    const auto perms_row = rpam.row(r);
    roles_[r].users.assign(users_row.begin(), users_row.end());
    roles_[r].perms.assign(perms_row.begin(), perms_row.end());
    // Empty sets are not indexed (empty roles are type-2 findings).
    if (!users_row.empty()) user_axis_.insert(r, linalg::csr_row_digest(users_row));
    if (!perms_row.empty()) perm_axis_.insert(r, linalg::csr_row_digest(perms_row));
  }
}

IncrementalAuditor::IncrementalAuditor(const RbacDataset& snapshot)
    : IncrementalAuditor(snapshot.user_table(), snapshot.role_table(),
                         snapshot.permission_table(), snapshot.ruam(), snapshot.rpam()) {}

// -------------------------------------------------------------- entities ---

Id IncrementalAuditor::add_user(std::string_view name) {
  const auto [id, added] = user_names_.intern(name);
  if (added) user_degree_.push_back(0);
  return id;
}

Id IncrementalAuditor::add_permission(std::string_view name) {
  const auto [id, added] = perm_names_.intern(name);
  if (added) perm_degree_.push_back(0);
  return id;
}

Id IncrementalAuditor::add_role(std::string_view name) {
  const auto [id, added] = role_names_.intern(name);
  if (added) roles_.emplace_back();
  return id;
}

// ----------------------------------------------------------------- edges ---

bool IncrementalAuditor::mutate(Id role, Id entity, std::vector<Id> RoleState::* axis,
                                AxisIndex& index, std::vector<std::size_t>& degrees,
                                bool add) {
  if (role >= roles_.size()) throw std::out_of_range("IncrementalAuditor: unknown role id");
  if (entity >= degrees.size())
    throw std::out_of_range("IncrementalAuditor: unknown user/permission id");

  std::vector<Id>& ids = roles_[role].*axis;
  const auto pos = std::lower_bound(ids.begin(), ids.end(), entity);
  const bool present = pos != ids.end() && *pos == entity;
  if (add == present) return false;  // already in the requested state

  // Re-index: empty sets are not indexed (empty roles are type-2 findings).
  if (!ids.empty()) index.erase(role, linalg::csr_row_digest(ids));
  if (add) {
    ids.insert(pos, entity);
    degrees[entity] += 1;
  } else {
    ids.erase(pos);
    degrees[entity] -= 1;
  }
  if (!ids.empty()) index.insert(role, linalg::csr_row_digest(ids));
  return true;
}

bool IncrementalAuditor::assign_user(Id role, Id user) {
  return mutate(role, user, &RoleState::users, user_axis_, user_degree_, /*add=*/true);
}

bool IncrementalAuditor::revoke_user(Id role, Id user) {
  return mutate(role, user, &RoleState::users, user_axis_, user_degree_, /*add=*/false);
}

bool IncrementalAuditor::grant_permission(Id role, Id perm) {
  return mutate(role, perm, &RoleState::perms, perm_axis_, perm_degree_, /*add=*/true);
}

bool IncrementalAuditor::revoke_permission(Id role, Id perm) {
  return mutate(role, perm, &RoleState::perms, perm_axis_, perm_degree_, /*add=*/false);
}

// -------------------------------------------------------------- findings ---

StructuralFindings IncrementalAuditor::structural() const {
  StructuralFindings f;
  for (std::size_t u = 0; u < user_degree_.size(); ++u) {
    if (user_degree_[u] == 0) f.standalone_users.push_back(static_cast<Id>(u));
  }
  for (std::size_t p = 0; p < perm_degree_.size(); ++p) {
    if (perm_degree_[p] == 0) f.standalone_permissions.push_back(static_cast<Id>(p));
  }
  for (std::size_t r = 0; r < roles_.size(); ++r) {
    const RoleState& role = roles_[r];
    const Id id = static_cast<Id>(r);
    if (role.users.empty() && role.perms.empty()) {
      f.standalone_roles.push_back(id);
    } else if (role.users.empty()) {
      f.roles_without_users.push_back(id);
    } else if (role.perms.empty()) {
      f.roles_without_permissions.push_back(id);
    }
    if (role.users.size() == 1) f.single_user_roles.push_back(id);
    if (role.perms.size() == 1) f.single_permission_roles.push_back(id);
  }
  return f;
}

RoleGroups IncrementalAuditor::same_user_groups(FinderWorkStats* work) const {
  return user_axis_.groups(
      [this](std::size_t a, std::size_t b) { return roles_[a].users == roles_[b].users; },
      work);
}

RoleGroups IncrementalAuditor::same_permission_groups(FinderWorkStats* work) const {
  return perm_axis_.groups(
      [this](std::size_t a, std::size_t b) { return roles_[a].perms == roles_[b].perms; },
      work);
}

linalg::CsrMatrix IncrementalAuditor::compile(std::vector<Id> RoleState::* axis,
                                              std::size_t cols) const {
  std::vector<std::size_t> row_ptr;
  row_ptr.reserve(roles_.size() + 1);
  row_ptr.push_back(0);
  for (const RoleState& role : roles_) row_ptr.push_back(row_ptr.back() + (role.*axis).size());
  std::vector<std::uint32_t> cols_idx;
  cols_idx.reserve(row_ptr.back());
  for (const RoleState& role : roles_) {
    cols_idx.insert(cols_idx.end(), (role.*axis).begin(), (role.*axis).end());
  }
  return linalg::CsrMatrix::from_csr(cols, std::move(row_ptr), std::move(cols_idx));
}

linalg::CsrMatrix IncrementalAuditor::compile_ruam() const {
  return compile(&RoleState::users, num_users());
}

linalg::CsrMatrix IncrementalAuditor::compile_rpam() const {
  return compile(&RoleState::perms, num_permissions());
}

RbacDataset IncrementalAuditor::snapshot() const {
  return RbacDataset::from_compiled(user_names_, role_names_, perm_names_, compile_ruam(),
                                    compile_rpam());
}

}  // namespace rolediet::core
