// Linear-time detectors for taxonomy types 1-3 (§III-B).
//
// All of these reduce to row/column sums of RUAM and RPAM, exactly as the
// paper describes:
//  - standalone users/permissions  -> zero column sums;
//  - standalone roles              -> zero row sum in *both* matrices;
//  - roles without users/permissions -> zero row sum in one matrix;
//  - single-user / single-permission roles -> row sum equal to 1.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "core/taxonomy.hpp"

namespace rolediet::core {

/// Per-entity findings for the linear-time taxonomy types. Id vectors are in
/// increasing order.
struct StructuralFindings {
  std::vector<Id> standalone_users;         ///< type 1
  std::vector<Id> standalone_roles;         ///< type 1 (no users AND no permissions)
  std::vector<Id> standalone_permissions;   ///< type 1
  std::vector<Id> roles_without_users;      ///< type 2 (has permissions, no users)
  std::vector<Id> roles_without_permissions;///< type 2 (has users, no permissions)
  std::vector<Id> single_user_roles;        ///< type 3
  std::vector<Id> single_permission_roles;  ///< type 3

  [[nodiscard]] bool operator==(const StructuralFindings&) const noexcept = default;
};

/// Runs all type-1/2/3 detectors in one pass over the compiled matrices.
///
/// Classification is disjoint on the role side: a role with zero users and
/// zero permissions is *standalone* (type 1) and is not repeated in the
/// type-2 lists; type-2 lists contain roles that are empty on exactly one
/// side. Type-3 lists are independent of types 1-2 (a role with one user and
/// zero permissions appears in both single_user_roles and
/// roles_without_permissions), matching the paper's note that "the same
/// roles can be linked to multiple types of inefficiencies".
[[nodiscard]] StructuralFindings detect_structural(const RbacDataset& dataset);

/// The same from compiled RUAM (roles x users) and RPAM (roles x
/// permissions): what the dataset overload runs on dataset.ruam() /
/// dataset.rpam(), and AuditEngine on its own compiled rows. Throws
/// std::invalid_argument when the two differ in row (role) count.
[[nodiscard]] StructuralFindings detect_structural(const linalg::CsrMatrix& ruam,
                                                   const linalg::CsrMatrix& rpam);

/// Column-sum zero scan on any assignment matrix (standalone detection on
/// the user or permission axis of a bare matrix).
[[nodiscard]] std::vector<Id> zero_columns(const linalg::CsrMatrix& matrix);

/// Rows whose entry count equals `target` (0 for disconnected, 1 for single).
[[nodiscard]] std::vector<Id> rows_with_sum(const linalg::CsrMatrix& matrix, std::size_t target);

}  // namespace rolediet::core
