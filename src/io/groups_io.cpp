#include "io/groups_io.hpp"

#include <charconv>
#include <fstream>
#include <map>

#include "io/csv.hpp"

namespace rolediet::io {

void save_groups(const core::RoleGroups& groups, const core::RbacDataset& dataset,
                 const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw CsvError("cannot write " + path.string());
  out << "group,role\n";
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (std::size_t member : groups.groups[g]) {
      out << g << "," << escape_csv_field(dataset.role_name(static_cast<core::Id>(member)))
          << "\n";
    }
  }
  close_or_throw(out, path);
}

core::RoleGroups load_groups(const core::RbacDataset& dataset,
                             const std::filesystem::path& path) {
  std::map<std::size_t, std::vector<std::size_t>> by_ordinal;
  const bool opened = for_each_csv_row(
      path, "group,role", [&](std::span<const std::string_view> fields, const CsvReader& reader) {
        // The whole field must be a decimal ordinal: no sign, space, base
        // prefix or trailing text.
        const std::string_view text = fields[0];
        std::size_t ordinal = 0;
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), ordinal);
        if (ec != std::errc{} || end != text.data() + text.size())
          reader.fail("bad group ordinal '" + std::string(text) + "'");
        const std::optional<core::Id> role = dataset.find_role(fields[1]);
        if (!role.has_value()) reader.fail("unknown role '" + std::string(fields[1]) + "'");
        by_ordinal[ordinal].push_back(*role);
      });
  if (!opened) throw CsvError("cannot open " + path.string());

  core::RoleGroups out;
  for (auto& [ordinal, members] : by_ordinal) {
    if (members.size() < 2) continue;
    out.groups.push_back(std::move(members));
  }
  out.normalize();
  return out;
}

}  // namespace rolediet::io
