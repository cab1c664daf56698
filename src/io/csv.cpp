#include "io/csv.hpp"

#include <fstream>

namespace rolediet::io {

std::vector<std::string> parse_csv_line(const std::string& line) {
  // RFC 4180 state machine. A quote is only meaningful at the start of a
  // field; a quote in the middle of an unquoted field, or any character
  // other than a comma after a closing quote, is rejected rather than
  // silently kept as a literal.
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteClosed };
  std::vector<std::string> fields;
  std::string current;
  State state = State::kFieldStart;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    switch (state) {
      case State::kFieldStart:
        if (c == '"') {
          state = State::kQuoted;
          ++i;
          continue;
        }
        state = State::kUnquoted;
        continue;  // reprocess c as unquoted content
      case State::kUnquoted:
        if (c == '"')
          throw CsvError("quote opening mid-field (quote the whole field): " + line);
        if (c == ',') {
          fields.push_back(std::move(current));
          current.clear();
          state = State::kFieldStart;
          ++i;
          continue;
        }
        if (c == '\r' && i + 1 == line.size()) {
          ++i;  // tolerate CRLF line endings
          continue;
        }
        current.push_back(c);
        ++i;
        continue;
      case State::kQuoted:
        if (c == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            current.push_back('"');
            i += 2;
            continue;
          }
          state = State::kQuoteClosed;
          ++i;
          continue;
        }
        current.push_back(c);
        ++i;
        continue;
      case State::kQuoteClosed:
        if (c == ',') {
          fields.push_back(std::move(current));
          current.clear();
          state = State::kFieldStart;
          ++i;
          continue;
        }
        if (c == '\r' && i + 1 == line.size()) {
          ++i;
          continue;
        }
        throw CsvError("unexpected character after closing quote: " + line);
    }
  }
  if (state == State::kQuoted) throw CsvError("unterminated quoted field: " + line);
  fields.push_back(std::move(current));
  return fields;
}

namespace {

/// True when a quote-parity scan of `text` ends inside an open quoted field.
/// Escaped quotes ("") toggle twice, so they cancel out; literal quotes in
/// unquoted fields are rejected by parse_csv_line later anyway.
bool ends_inside_quotes(const std::string& text) {
  bool quoted = false;
  for (char c : text) {
    if (c == '"') quoted = !quoted;
  }
  return quoted;
}

}  // namespace

bool read_csv_record(std::istream& in, std::string& record, std::size_t& physical_lines) {
  record.clear();
  physical_lines = 0;
  std::string line;
  if (!std::getline(in, line)) return false;
  ++physical_lines;
  record = std::move(line);
  // A record whose quoted field contains a line break continues on the next
  // physical line (RFC 4180); rejoin with the '\n' getline consumed. An
  // unterminated quote at EOF leaves the parity open — parse_csv_line then
  // reports it.
  while (ends_inside_quotes(record) && std::getline(in, line)) {
    ++physical_lines;
    record.push_back('\n');
    record += line;
  }
  return true;
}

std::string escape_csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

namespace {

/// Applies `consume(fields, line_no)` to every non-empty data record of
/// `path`, after validating the header. Records are read with
/// read_csv_record, so quoted fields may span physical lines; line_no is the
/// first physical line of the record. Missing file is a no-op when
/// `optional`.
template <typename Consume>
void for_each_row(const std::filesystem::path& path, const std::string& expected_header,
                  bool optional, Consume&& consume) {
  std::ifstream in(path);
  if (!in) {
    if (optional) return;
    throw CsvError("cannot open " + path.string());
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t next_line = 1;
  std::size_t consumed = 0;
  bool saw_header = false;
  while (read_csv_record(in, line, consumed)) {
    line_no = next_line;
    next_line += consumed;
    if (line.empty() || line == "\r") continue;
    std::vector<std::string> fields = parse_csv_line(line);
    if (!saw_header) {
      saw_header = true;
      std::string header;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) header.push_back(',');
        header += fields[f];
      }
      if (header != expected_header)
        throw CsvError(path.string() + ":" + std::to_string(line_no) + ": expected header '" +
                       expected_header + "', got '" + header + "'");
      continue;
    }
    if (fields.size() != 2)
      throw CsvError(path.string() + ":" + std::to_string(line_no) + ": expected 2 fields, got " +
                     std::to_string(fields.size()));
    consume(std::move(fields), line_no);
  }
}

}  // namespace

core::RbacDataset load_dataset(const std::filesystem::path& dir) {
  // The three files are optional; the directory is not — a mistyped path
  // must not audit as an empty dataset.
  if (!std::filesystem::is_directory(dir)) {
    throw CsvError("dataset directory " + dir.string() + " does not exist or is not a directory");
  }
  core::RbacDataset data;

  for_each_row(dir / "entities.csv", "kind,name", /*optional=*/true,
               [&](std::vector<std::string> fields, std::size_t line_no) {
                 const std::string& kind = fields[0];
                 if (kind == "user") {
                   data.add_user(std::move(fields[1]));
                 } else if (kind == "role") {
                   data.add_role(std::move(fields[1]));
                 } else if (kind == "permission") {
                   data.add_permission(std::move(fields[1]));
                 } else {
                   throw CsvError((dir / "entities.csv").string() + ":" +
                                  std::to_string(line_no) + ": unknown entity kind '" + kind +
                                  "'");
                 }
               });

  for_each_row(dir / "assignments.csv", "role,user", /*optional=*/true,
               [&](std::vector<std::string> fields, std::size_t) {
                 const core::Id role = data.add_role(std::move(fields[0]));
                 const core::Id user = data.add_user(std::move(fields[1]));
                 data.assign_user(role, user);
               });

  for_each_row(dir / "grants.csv", "role,permission", /*optional=*/true,
               [&](std::vector<std::string> fields, std::size_t) {
                 const core::Id role = data.add_role(std::move(fields[0]));
                 const core::Id perm = data.add_permission(std::move(fields[1]));
                 data.grant_permission(role, perm);
               });

  return data;
}

void save_dataset(const core::RbacDataset& dataset, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  auto open = [](const std::filesystem::path& path) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw CsvError("cannot write " + path.string());
    return out;
  };

  {
    std::ofstream out = open(dir / "entities.csv");
    out << "kind,name\n";
    for (std::size_t u = 0; u < dataset.num_users(); ++u)
      out << "user," << escape_csv_field(dataset.user_name(static_cast<core::Id>(u))) << "\n";
    for (std::size_t r = 0; r < dataset.num_roles(); ++r)
      out << "role," << escape_csv_field(dataset.role_name(static_cast<core::Id>(r))) << "\n";
    for (std::size_t p = 0; p < dataset.num_permissions(); ++p)
      out << "permission,"
          << escape_csv_field(dataset.permission_name(static_cast<core::Id>(p))) << "\n";
  }
  {
    std::ofstream out = open(dir / "assignments.csv");
    out << "role,user\n";
    for (const auto& [role, user] : dataset.role_user_edges())
      out << escape_csv_field(dataset.role_name(role)) << ","
          << escape_csv_field(dataset.user_name(user)) << "\n";
  }
  {
    std::ofstream out = open(dir / "grants.csv");
    out << "role,permission\n";
    for (const auto& [role, perm] : dataset.role_permission_edges())
      out << escape_csv_field(dataset.role_name(role)) << ","
          << escape_csv_field(dataset.permission_name(perm)) << "\n";
  }
}

}  // namespace rolediet::io
