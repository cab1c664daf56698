#include "core/detector.hpp"

#include <stdexcept>

namespace rolediet::core {

std::vector<Id> zero_columns(const linalg::CsrMatrix& matrix) {
  std::vector<Id> out;
  const auto sums = matrix.column_sums();
  for (std::size_t c = 0; c < sums.size(); ++c) {
    if (sums[c] == 0) out.push_back(static_cast<Id>(c));
  }
  return out;
}

std::vector<Id> rows_with_sum(const linalg::CsrMatrix& matrix, std::size_t target) {
  std::vector<Id> out;
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    if (matrix.row_size(r) == target) out.push_back(static_cast<Id>(r));
  }
  return out;
}

StructuralFindings detect_structural(const RbacDataset& dataset) {
  return detect_structural(dataset.ruam(), dataset.rpam());
}

StructuralFindings detect_structural(const linalg::CsrMatrix& ruam,
                                     const linalg::CsrMatrix& rpam) {
  if (ruam.rows() != rpam.rows())
    throw std::invalid_argument("detect_structural: RUAM and RPAM differ in role count");
  StructuralFindings findings;
  findings.standalone_users = zero_columns(ruam);
  findings.standalone_permissions = zero_columns(rpam);

  for (std::size_t role = 0; role < ruam.rows(); ++role) {
    const std::size_t users = ruam.row_size(role);
    const std::size_t perms = rpam.row_size(role);
    const Id id = static_cast<Id>(role);

    if (users == 0 && perms == 0) {
      findings.standalone_roles.push_back(id);
    } else if (users == 0) {
      findings.roles_without_users.push_back(id);
    } else if (perms == 0) {
      findings.roles_without_permissions.push_back(id);
    }

    if (users == 1) findings.single_user_roles.push_back(id);
    if (perms == 1) findings.single_permission_roles.push_back(id);
  }
  return findings;
}

}  // namespace rolediet::core
