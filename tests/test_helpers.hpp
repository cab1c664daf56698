// Shared fixtures for the rolediet test suite.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/model.hpp"
#include "io/csv.hpp"
#include "linalg/csr_matrix.hpp"

namespace rolediet::testing {

/// RAII temp directory: a unique path under the system temp dir (tagged per
/// suite, unique per process and instance), recursively removed on
/// destruction. Every test that touches the filesystem goes through this so
/// parallel ctest runs never collide and failures never leak directories.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag = "test") {
    static std::atomic<int> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("rolediet_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return dir_; }

  /// An entry inside the directory.
  [[nodiscard]] std::filesystem::path file(const std::string& name) const { return dir_ / name; }

  /// String form for CLI-style call sites.
  [[nodiscard]] std::string str(const std::string& sub = "") const {
    return sub.empty() ? dir_.string() : (dir_ / sub).string();
  }

 private:
  std::filesystem::path dir_;
};

/// The paper's Fig. 1 worked example: users U01-U04, roles R01-R05,
/// permissions P01-P06, with every inefficiency the figure calls out:
///   - P01 is a standalone permission;
///   - R02 has users but no permissions; R03 has permissions but no users;
///   - R01 and R05 are single-user roles (R01 is also single-permission);
///   - R02 and R04 share the same user set {U02, U03};
///   - R04 and R05 share the same permission set {P04, P05}.
/// The resulting RUAM co-occurrence matrix matches the paper's table:
/// diagonal (1, 2, 0, 2, 1) and g(R02, R04) = 2.
inline core::RbacDataset figure1_dataset() {
  core::RbacDataset d;
  const core::Id u01 = d.add_user("U01");
  const core::Id u02 = d.add_user("U02");
  const core::Id u03 = d.add_user("U03");
  const core::Id u04 = d.add_user("U04");
  d.add_permission("P01");  // standalone
  const core::Id p02 = d.add_permission("P02");
  const core::Id p03 = d.add_permission("P03");
  const core::Id p04 = d.add_permission("P04");
  const core::Id p05 = d.add_permission("P05");
  const core::Id p06 = d.add_permission("P06");
  const core::Id r01 = d.add_role("R01");
  const core::Id r02 = d.add_role("R02");
  const core::Id r03 = d.add_role("R03");
  const core::Id r04 = d.add_role("R04");
  const core::Id r05 = d.add_role("R05");

  d.assign_user(r01, u01);
  d.grant_permission(r01, p02);

  d.assign_user(r02, u02);
  d.assign_user(r02, u03);

  d.grant_permission(r03, p03);
  d.grant_permission(r03, p06);

  d.assign_user(r04, u02);
  d.assign_user(r04, u03);
  d.grant_permission(r04, p04);
  d.grant_permission(r04, p05);

  d.assign_user(r05, u04);
  d.grant_permission(r05, p04);
  d.grant_permission(r05, p05);
  return d;
}

/// A norm clique beside content-decided matches, on both axes. Roles
/// R0..R<singles-1> hold one user each (all distinct) and one permission
/// each, shared by pairs (R0 and R1 hold P0, R2 and R3 hold P1, ...): at a
/// Hamming threshold t >= 2 every two of them match on norms alone, and
/// some of those pairs also share a column. Then `families` families of
/// four near-copies: a family's roles hold its base of `width` users and
/// `width` permissions plus one extra user and permission of their own, so
/// two copies are at distance 2 with norms summing to 2 * (width + 1), a
/// match only their content decides for t < 2 * (width + 1).
inline core::RbacDataset norm_clique_dataset(std::size_t singles, std::size_t families,
                                             std::size_t width) {
  constexpr std::size_t kCopies = 4;
  core::RbacDataset d;
  const std::size_t family_cols = families * (width + kCopies);
  const core::Id users = d.add_users(singles + family_cols);
  const core::Id perms = d.add_permissions((singles + 1) / 2 + family_cols);
  const core::Id roles = d.add_roles(singles + families * kCopies);
  for (std::size_t r = 0; r < singles; ++r) {
    d.assign_user(roles + static_cast<core::Id>(r), users + static_cast<core::Id>(r));
    d.grant_permission(roles + static_cast<core::Id>(r), perms + static_cast<core::Id>(r / 2));
  }
  for (std::size_t f = 0; f < families; ++f) {
    const std::size_t base = f * (width + kCopies);
    for (std::size_t k = 0; k < kCopies; ++k) {
      const auto role = roles + static_cast<core::Id>(singles + f * kCopies + k);
      for (std::size_t c = 0; c < width; ++c) {
        d.assign_user(role, users + static_cast<core::Id>(singles + base + c));
        d.grant_permission(role, perms + static_cast<core::Id>((singles + 1) / 2 + base + c));
      }
      d.assign_user(role, users + static_cast<core::Id>(singles + base + width + k));
      d.grant_permission(role, perms + static_cast<core::Id>((singles + 1) / 2 + base + width + k));
    }
  }
  return d;
}

/// Builds a CSR matrix from explicit rows of column indices.
inline linalg::CsrMatrix csr_from_rows(std::size_t cols,
                                       const std::vector<std::vector<std::uint32_t>>& rows) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::uint32_t c : rows[r]) pairs.emplace_back(static_cast<std::uint32_t>(r), c);
  }
  return linalg::CsrMatrix::from_pairs(rows.size(), cols, std::move(pairs));
}

/// The fields of one in-memory CSV record (io::CsvReader's in-memory form,
/// which yields a blank record as one empty field).
inline std::vector<std::string> csv_fields(std::string_view record) {
  io::CsvReader reader(record);
  const std::span<const std::string_view> fields = reader.next()->fields;
  return {fields.begin(), fields.end()};
}

}  // namespace rolediet::testing
