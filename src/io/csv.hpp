// CSV import/export of RBAC datasets, and the one CSV reader behind every
// CSV-shaped format (dataset files, journals, WAL payloads, groups files).
//
// On-disk format — the shape IAM exports usually take (one edge per line):
//
//   assignments.csv   header "role,user"        one user assignment per row
//   grants.csv        header "role,permission"  one permission grant per row
//   entities.csv      header "kind,name"        optional: declares users /
//                     roles / permissions with no edges (standalone nodes
//                     would otherwise be unrepresentable)
//
// Names may be quoted with double quotes when they contain commas, quotes or
// line breaks (RFC 4180-style, "" escapes a quote; a quoted field may span
// physical lines). Duplicate edges are tolerated and collapse at matrix
// compile time. Every malformed record, bad quoting included, raises
// CsvError naming path:line, the record's first physical line.
#pragma once

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.hpp"

namespace rolediet::io {

class CsvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One record as CsvReader yields it.
struct CsvRecord {
  /// Unescaped fields; views into the reader, valid until its next call.
  std::span<const std::string_view> fields;
  /// First physical line of the record (1-based).
  std::size_t line = 0;
};

/// Streaming RFC 4180 record reader.
///
/// A quote is meaningful only at the start of a field, and "" inside a quoted
/// field escapes a quote. A quote in the middle of an unquoted field, anything
/// but a comma after a closing quote, and an unterminated quote each raise
/// CsvError. One '\r' before a record's end is dropped. A quoted field may
/// span physical lines; line numbers count them.
///
/// The stream is read in blocks into one buffer that grows (doubling) only
/// while a single record does not fit in it, so memory stays below
/// 2 × max(block, longest record + its line break) however long the input
/// is. A record is parsed in one pass over the buffer; one that runs past
/// the bytes read so far moves to the front and is parsed again once the
/// next block is in.
/// Fields are views into the buffer: "" escapes collapse in place.
class CsvReader {
 public:
  static constexpr std::size_t kBlockSize = std::size_t{64} << 10;

  /// Reads records from `in`, `block_size` bytes at a time. When `source`
  /// (a path) is given, every CsvError reads "source:line: what".
  explicit CsvReader(std::istream& in, std::string source = {},
                     std::size_t block_size = kBlockSize);

  /// Reads exactly one record held in memory: all of `record` is its text,
  /// so a line break outside quotes is field content (a WAL payload), and
  /// the record is returned even when blank (one empty field).
  explicit CsvReader(std::string_view record);

  /// The next record that is not blank — an empty line or a lone '\r';
  /// nullopt at end of input. Throws CsvError on bad quoting or a failed
  /// read; line() then names the rejected record.
  [[nodiscard]] std::optional<CsvRecord> next();

  /// First physical line of the record last returned or rejected.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  /// Physical lines consumed so far.
  [[nodiscard]] std::size_t lines_read() const noexcept { return next_line_ - 1; }
  /// Size of the buffer: the block size until one record outgrew it.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Throws CsvError(what), prefixed "source:line: " when the reader has a
  /// source: callers report their own checks of a record the same way.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Reads another block behind the unread bytes, first moving them to the
  /// front (or growing the buffer when they already fill it). False at end
  /// of input.
  bool fill();
  /// Parses the record at the front of the unread bytes into fields_ and
  /// consumes it: the RFC 4180 state machine, with a line break outside
  /// quotes ending a stream's record. Returns the record's size before its
  /// line break, or nullopt when the record runs past the bytes read so far
  /// and the stream has more (the caller fills and parses it again).
  std::optional<std::size_t> split();

  std::istream* in_ = nullptr;  ///< null for an in-memory record
  std::string source_;
  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  ///< first byte not yet consumed
  std::size_t end_ = 0;    ///< end of the bytes read so far
  bool eof_ = false;       ///< no byte remains past end_
  std::size_t line_ = 0;
  std::size_t next_line_ = 1;
  std::vector<std::string_view> fields_;
  std::vector<std::size_t> escaped_;  ///< fields_ holding "" escapes
};

/// Escapes a field for CSV output (quotes only when needed).
[[nodiscard]] std::string escape_csv_field(const std::string& field);

/// Opens the CSV file at `path`, checks that its first record is `header`
/// (fields joined by ',') and calls `row(fields, reader)` — the record's
/// fields and the reader, whose fail() reports a bad value — on every later
/// record, which must have as many fields as `header` names. Errors name
/// path:line. Returns false, without reading, when the file cannot be opened.
template <typename Row>
bool for_each_csv_row(const std::filesystem::path& path, std::string_view header, Row&& row);

/// Loads a dataset from a directory containing assignments.csv and
/// grants.csv (either may be absent => no edges of that kind) and optional
/// entities.csv. Ids are assigned in order of first appearance: entities
/// first, then assignments, then grants. Throws CsvError naming the path
/// when `dir` is not a directory.
[[nodiscard]] core::RbacDataset load_dataset(const std::filesystem::path& dir);

/// Writes assignments.csv, grants.csv, and entities.csv under `dir`
/// (created if needed). entities.csv lists every entity so standalone nodes
/// round-trip. Throws CsvError naming the file when a write fails.
void save_dataset(const core::RbacDataset& dataset, const std::filesystem::path& dir);

/// Flushes and closes `out`; throws CsvError naming `path` when any write to
/// it failed (a full disk shows only at the flush).
void close_or_throw(std::ofstream& out, const std::filesystem::path& path);

}  // namespace rolediet::io

template <typename Row>
bool rolediet::io::for_each_csv_row(const std::filesystem::path& path, std::string_view header,
                                    Row&& row) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  CsvReader reader(in, path.string());
  std::optional<CsvRecord> record = reader.next();
  if (!record) return true;
  std::string got;
  for (std::size_t f = 0; f < record->fields.size(); ++f) {
    if (f > 0) got.push_back(',');
    got += record->fields[f];
  }
  if (got != header)
    reader.fail("expected header '" + std::string(header) + "', got '" + got + "'");
  const std::size_t width = 1 + std::count(header.begin(), header.end(), ',');
  while ((record = reader.next())) {
    if (record->fields.size() != width)
      reader.fail("expected " + std::to_string(width) + " fields, got " +
                  std::to_string(record->fields.size()));
    row(record->fields, reader);
  }
  return true;
}
