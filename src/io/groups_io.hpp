// Persistence for role groupings — the state a periodic cleanup job carries
// between runs (core/periodic.hpp): each run loads the accumulated grouping,
// absorbs its fresh findings, and saves the union back.
//
// On-disk format: CSV with header "group,role", one member per line, group
// ordinals contiguous from 0, members in canonical order. Role *names* (not
// ids) are stored so the file survives dataset recompilation where ids move.
#pragma once

#include <filesystem>

#include "core/model.hpp"
#include "core/taxonomy.hpp"

namespace rolediet::io {

/// Writes `groups` (member indices resolved against `dataset`) to `path`.
/// Throws CsvError naming `path` when a write fails.
void save_groups(const core::RoleGroups& groups, const core::RbacDataset& dataset,
                 const std::filesystem::path& path);

/// Reads a grouping back through CsvReader, resolving role names against
/// `dataset`. An ordinal must be a whole unsigned decimal field (no sign,
/// space, base prefix or trailing text). A bad ordinal, an unknown role name
/// (the dataset changed incompatibly) or bad quoting raises CsvError naming
/// path:line; groups that drop below two members after resolution are
/// removed. Result is canonical.
[[nodiscard]] core::RoleGroups load_groups(const core::RbacDataset& dataset,
                                           const std::filesystem::path& path);

}  // namespace rolediet::io
