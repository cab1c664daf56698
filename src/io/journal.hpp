// Mutation journal: a streamable CSV log of RBAC changes.
//
// IAM systems mutate continuously; the audit engine (core/engine.hpp)
// consumes those changes as RbacDelta batches. The journal is the on-disk /
// on-wire form of that stream — the shape change-data-capture exports take,
// one mutation per record, by entity *name* (ids are an engine detail and
// would not survive replay into a different engine):
//
//   add-user,NAME
//   add-role,NAME
//   add-permission,NAME
//   assign-user,ROLE,USER
//   revoke-user,ROLE,USER
//   grant-permission,ROLE,PERM
//   revoke-permission,ROLE,PERM
//
// Records are read by io::CsvReader (csv.hpp), so quoting follows the
// dataset CSVs (RFC 4180-style): names with commas, quotes, or line breaks
// round-trip. No header line. Blank records, and records whose only field
// is empty, are skipped; malformed records (unknown tag, wrong field count,
// bad quoting) raise CsvError "journal line N: ...", N the record's first
// physical line. Replay semantics
// are AuditEngine::apply()'s: adds and edge additions intern unknown names,
// revocations of unknown names are no-ops, so a journal replays
// idempotently from any prefix.
#pragma once

#include <filesystem>
#include <istream>
#include <ostream>
#include <string_view>

#include "core/engine.hpp"
#include "io/csv.hpp"

namespace rolediet::io {

/// Serializes one mutation as a single CSV record (no trailing newline).
[[nodiscard]] std::string format_journal_record(const core::Mutation& mutation);

/// Parses one serialized journal record (the inverse of
/// format_journal_record) through CsvReader's in-memory form: all of
/// `record` is one record, so a line break outside quotes is field content.
/// Throws CsvError on an unknown tag, wrong field count, bad quoting, or an
/// empty record — without line-number context, which only stream readers
/// have. The durable store's WAL (store/wal.hpp) frames exactly these
/// payloads.
[[nodiscard]] core::Mutation parse_journal_record(std::string_view record);

/// Writes the delta, one record per line. Throws CsvError on I/O failure.
void write_journal(std::ostream& out, const core::RbacDelta& delta);
void save_journal(const std::filesystem::path& path, const core::RbacDelta& delta);

/// Parses a whole journal into one delta. Blank records are skipped.
[[nodiscard]] core::RbacDelta read_journal(std::istream& in);
[[nodiscard]] core::RbacDelta load_journal(const std::filesystem::path& path);

/// Streaming reader for replay drivers: yields one mutation at a time from
/// a CsvReader, whose buffer holds one block (or the longest record), so a
/// multi-gigabyte journal never has to fit in memory.
class JournalReader {
 public:
  explicit JournalReader(std::istream& in) : reader_(in) {}

  /// Reads the next mutation; false at end of input. Throws CsvError
  /// ("journal line N: ...", N the record's first physical line) on
  /// malformed records.
  bool next(core::Mutation& mutation);

  /// Physical lines consumed so far (error reporting / progress).
  [[nodiscard]] std::size_t line() const noexcept { return reader_.lines_read(); }

 private:
  CsvReader reader_;
};

}  // namespace rolediet::io
