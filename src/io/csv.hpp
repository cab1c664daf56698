// CSV import/export of RBAC datasets.
//
// On-disk format — the shape IAM exports usually take (one edge per line):
//
//   assignments.csv   header "role,user"        one user assignment per row
//   grants.csv        header "role,permission"  one permission grant per row
//   entities.csv      header "kind,name"        optional: declares users /
//                     roles / permissions with no edges (standalone nodes
//                     would otherwise be unrepresentable)
//
// Names may be quoted with double quotes when they contain commas/quotes
// (RFC 4180-style, "" escapes a quote). Duplicate edges are tolerated and
// collapse at matrix compile time. Malformed rows raise CsvError with the
// file and 1-based line number.
#pragma once

#include <filesystem>
#include <istream>
#include <stdexcept>
#include <string>

#include "core/model.hpp"

namespace rolediet::io {

class CsvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses one CSV record into fields (RFC 4180 quoting; the record may span
/// physical lines when a quoted field embeds '\n'). Rejects a quote opening
/// mid-field and content after a closing quote. Exposed for tests.
[[nodiscard]] std::vector<std::string> parse_csv_line(const std::string& line);

/// Reads one logical CSV record from `in`: physical lines are rejoined with
/// '\n' while a quoted field remains open, so names with embedded line
/// breaks round-trip. Returns false at end of input; `physical_lines` is the
/// number of lines consumed (for error line numbers). Exposed for loaders
/// and tests.
bool read_csv_record(std::istream& in, std::string& record, std::size_t& physical_lines);

/// Escapes a field for CSV output (quotes only when needed).
[[nodiscard]] std::string escape_csv_field(const std::string& field);

/// Loads a dataset from a directory containing assignments.csv and
/// grants.csv (either may be absent => no edges of that kind) and optional
/// entities.csv. Entities are interned in file order. Throws CsvError naming
/// the path when `dir` is not a directory.
[[nodiscard]] core::RbacDataset load_dataset(const std::filesystem::path& dir);

/// Writes assignments.csv, grants.csv, and entities.csv under `dir`
/// (created if needed). entities.csv lists every entity so standalone nodes
/// round-trip. Throws CsvError on I/O failure.
void save_dataset(const core::RbacDataset& dataset, const std::filesystem::path& dir);

}  // namespace rolediet::io
