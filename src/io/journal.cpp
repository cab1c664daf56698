#include "io/journal.hpp"

#include <fstream>
#include <string>

namespace rolediet::io {

namespace {

// Field-count contract per tag: add-* records carry one name, edge records
// carry role + entity.
bool is_edge_kind(core::MutationKind kind) {
  switch (kind) {
    case core::MutationKind::kAssignUser:
    case core::MutationKind::kRevokeUser:
    case core::MutationKind::kGrantPermission:
    case core::MutationKind::kRevokePermission:
      return true;
    case core::MutationKind::kAddUser:
    case core::MutationKind::kAddRole:
    case core::MutationKind::kAddPermission:
      return false;
  }
  return false;
}

bool parse_kind(std::string_view tag, core::MutationKind& kind) {
  using core::MutationKind;
  for (MutationKind candidate :
       {MutationKind::kAddUser, MutationKind::kAddRole, MutationKind::kAddPermission,
        MutationKind::kAssignUser, MutationKind::kRevokeUser, MutationKind::kGrantPermission,
        MutationKind::kRevokePermission}) {
    if (tag == core::to_string(candidate)) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw CsvError("journal line " + std::to_string(line) + ": " + what);
}

/// Shared tag/field-count validation behind parse_journal_record and the
/// streaming reader (which parses the CSV once and owns line numbers).
core::Mutation mutation_from_fields(std::span<const std::string_view> fields) {
  core::MutationKind kind;
  if (!parse_kind(fields[0], kind)) {
    throw CsvError("unknown mutation tag \"" + std::string(fields[0]) + "\"");
  }
  const std::size_t expect = is_edge_kind(kind) ? 3 : 2;
  if (fields.size() != expect) {
    throw CsvError("tag \"" + std::string(fields[0]) + "\" takes " + std::to_string(expect - 1) +
                   " field(s), got " + std::to_string(fields.size() - 1));
  }
  core::Mutation mutation;
  mutation.kind = kind;
  if (is_edge_kind(kind)) {
    mutation.role = fields[1];
    mutation.entity = fields[2];
  } else {
    mutation.entity = fields[1];
  }
  return mutation;
}

/// A record whose only field is empty, such as `""`: the journal skips it
/// as it skips a blank line.
bool is_blank_record(std::span<const std::string_view> fields) {
  return fields.size() == 1 && fields[0].empty();
}

}  // namespace

std::string format_journal_record(const core::Mutation& mutation) {
  std::string out{core::to_string(mutation.kind)};
  if (is_edge_kind(mutation.kind)) {
    out += ',';
    out += escape_csv_field(mutation.role);
  }
  out += ',';
  out += escape_csv_field(mutation.entity);
  return out;
}

void write_journal(std::ostream& out, const core::RbacDelta& delta) {
  for (const core::Mutation& mutation : delta.mutations) {
    out << format_journal_record(mutation) << '\n';
  }
  if (!out) throw CsvError("journal: write failed");
}

void save_journal(const std::filesystem::path& path, const core::RbacDelta& delta) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw CsvError("journal: cannot open " + path.string() + " for writing");
  write_journal(out, delta);
  out.flush();
  if (!out) throw CsvError("journal: write failed for " + path.string());
}

core::Mutation parse_journal_record(std::string_view record) {
  CsvReader reader(record);
  const std::span<const std::string_view> fields = reader.next()->fields;
  if (is_blank_record(fields)) throw CsvError("empty journal record");
  return mutation_from_fields(fields);
}

bool JournalReader::next(core::Mutation& mutation) {
  for (;;) {
    std::optional<CsvRecord> record;
    try {
      record = reader_.next();
    } catch (const CsvError& err) {
      fail(reader_.line(), err.what());
    }
    if (!record) return false;
    if (is_blank_record(record->fields)) continue;
    try {
      mutation = mutation_from_fields(record->fields);
    } catch (const CsvError& err) {
      fail(record->line, err.what());
    }
    return true;
  }
}

core::RbacDelta read_journal(std::istream& in) {
  core::RbacDelta delta;
  JournalReader reader(in);
  core::Mutation mutation;
  while (reader.next(mutation)) delta.mutations.push_back(std::move(mutation));
  return delta;
}

core::RbacDelta load_journal(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CsvError("journal: cannot open " + path.string());
  return read_journal(in);
}

}  // namespace rolediet::io
