// Differential fuzz of io::CsvReader against the line-based reference parser
// it replaced. Seeded mutations (bit flips, inserted quotes, commas, CR and
// LF, truncations, splices) of every CSV-shaped format — a hostile-names
// dataset file, a journal, a groups file and single WAL payloads — must
// yield the reference's records (fields and first physical line), or throw
// CsvError where the reference throws, and never crash. The budget is fixed
// per run so that the sanitizer legs cover it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/adversarial.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "util/prng.hpp"

namespace rolediet::io {
namespace {

// ---------------------------------------------------------- reference ---
// The RFC 4180 state machine and the quote-parity record joiner that the
// dataset, journal and groups loaders used before CsvReader, kept as the
// oracle.

std::vector<std::string> parse_csv_line(const std::string& line) {
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

bool ends_inside_quotes(const std::string& text) {
  bool quoted = false;
  for (char c : text) {
    if (c == '"') quoted = !quoted;
  }
  return quoted;
}

bool read_csv_record(std::istream& in, std::string& record, std::size_t& physical_lines) {
  record.clear();
  physical_lines = 0;
  std::string line;
  if (!std::getline(in, line)) return false;
  ++physical_lines;
  record = std::move(line);
  while (ends_inside_quotes(record) && std::getline(in, line)) {
    ++physical_lines;
    record.push_back('\n');
    record += line;
  }
  return true;
}

// ------------------------------------------------------------ harness ---

struct Record {
  std::vector<std::string> fields;
  std::size_t line = 0;
  bool operator==(const Record&) const = default;
};

/// What a loader sees of a stream: its non-blank records up to the first
/// error, and whether there was one.
struct Outcome {
  std::vector<Record> records;
  bool threw = false;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& outcome) {
  os << outcome.records.size() << " records" << (outcome.threw ? ", then CsvError" : "");
  if (!outcome.records.empty()) {
    const Record& last = outcome.records.back();
    os << "; last at line " << last.line << " with " << last.fields.size() << " fields";
  }
  return os;
}

Outcome reference_stream(const std::string& text) {
  std::istringstream in(text);
  Outcome out;
  std::string record;
  std::size_t consumed = 0;
  std::size_t next_line = 1;
  while (read_csv_record(in, record, consumed)) {
    const std::size_t line = next_line;
    next_line += consumed;
    if (record.empty() || record == "\r") continue;
    try {
      out.records.push_back({parse_csv_line(record), line});
    } catch (const CsvError&) {
      out.threw = true;
      break;
    }
  }
  return out;
}

Outcome reader_stream(const std::string& text, std::size_t block) {
  std::istringstream in(text);
  CsvReader reader(in, {}, block);
  Outcome out;
  try {
    while (const std::optional<CsvRecord> record = reader.next()) {
      out.records.push_back(
          {std::vector<std::string>(record->fields.begin(), record->fields.end()), record->line});
    }
  } catch (const CsvError&) {
    out.threw = true;
  }
  return out;
}

Outcome reference_record(const std::string& payload) {
  Outcome out;
  try {
    out.records.push_back({parse_csv_line(payload), 1});
  } catch (const CsvError&) {
    out.threw = true;
  }
  return out;
}

Outcome reader_record(const std::string& payload) {
  Outcome out;
  try {
    CsvReader reader(payload);
    const std::span<const std::string_view> fields = reader.next()->fields;
    out.records.push_back({std::vector<std::string>(fields.begin(), fields.end()), 1});
  } catch (const CsvError&) {
    out.threw = true;
  }
  return out;
}

/// One to four seeded edits of `text`.
std::string mutate(std::string text, util::Xoshiro256& rng) {
  static constexpr char kInserts[] = {'"', ',', '\r', '\n'};
  const std::size_t edits = 1 + rng.bounded(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.bounded(text.size() + 1);
    switch (rng.bounded(6)) {
      case 0:  // bit flip
        if (at < text.size()) text[at] = static_cast<char>(text[at] ^ (1 << rng.bounded(8)));
        break;
      case 1:  // a quote, comma, CR or LF
      case 2:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kInserts[rng.bounded(sizeof(kInserts))]);
        break;
      case 3:  // truncation
        text.resize(at);
        break;
      case 4: {  // splice a copy of another stretch in
        const std::size_t from = rng.bounded(text.size() + 1);
        const std::size_t length = rng.bounded(std::min<std::size_t>(text.size() - from, 64) + 1);
        text.insert(at, text.substr(from, length));
        break;
      }
      default: {  // cut a stretch out
        const std::size_t length = rng.bounded(std::min<std::size_t>(text.size() - at, 16) + 1);
        text.erase(at, length);
        break;
      }
    }
  }
  return text;
}

// ------------------------------------------------------------- inputs ---

core::RbacDataset hostile() {
  return gen::make_adversarial(gen::AdversarialScenario::kHostileNames, {.seed = 7, .scale = 12});
}

std::string entities_csv(const core::RbacDataset& d) {
  std::string text = "kind,name\n";
  for (core::Id u = 0; u < d.num_users(); ++u)
    text += "user," + escape_csv_field(d.user_name(u)) + "\n";
  for (core::Id r = 0; r < d.num_roles(); ++r)
    text += "role," + escape_csv_field(d.role_name(r)) + "\n";
  return text;
}

std::string assignments_csv(const core::RbacDataset& d) {
  std::string text = "role,user\r\n";  // CRLF line endings throughout
  for (const auto& [role, user] : d.role_user_edges())
    text += escape_csv_field(d.role_name(role)) + "," + escape_csv_field(d.user_name(user)) +
            "\r\n";
  return text;
}

std::string groups_csv(const core::RbacDataset& d) {
  // Users' names stand in as more members: only the text matters here.
  std::string text = "group,role\n";
  for (core::Id r = 0; r < d.num_roles(); ++r)
    text += std::to_string(r / 3) + "," + escape_csv_field(d.role_name(r)) + "\n";
  for (core::Id u = 0; u < d.num_users(); ++u)
    text += std::to_string(u / 3) + "," + escape_csv_field(d.user_name(u)) + "\n";
  return text;
}

std::string journal(const core::RbacDataset& d) {
  std::ostringstream out;
  write_journal(out, gen::dataset_as_delta(d));
  return out.str();
}

/// Every seed parses cleanly before it is mutated, so the mutations, not
/// the seeds, decide what the reader meets.
void expect_clean(const std::string& text) {
  const Outcome outcome = reference_stream(text);
  ASSERT_FALSE(outcome.threw);
  ASSERT_GT(outcome.records.size(), 10u);
  ASSERT_EQ(reader_stream(text, CsvReader::kBlockSize), outcome);
}

constexpr std::size_t kMutantsPerSeed = 1500;

void fuzz_stream(const std::string& seed_text, std::uint64_t seed) {
  expect_clean(seed_text);
  util::Xoshiro256 rng(seed);
  std::size_t threw = 0;
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    const std::string text = mutate(seed_text, rng);
    // Small blocks put record and quote boundaries at every buffer edge.
    const std::size_t block = 1 + rng.bounded(48);
    const Outcome expected = reference_stream(text);
    ASSERT_EQ(reader_stream(text, block), expected) << "mutant " << i << ", block " << block;
    threw += expected.threw ? 1 : 0;
  }
  // Both sides of the differential are exercised.
  EXPECT_GT(threw, kMutantsPerSeed / 10);
  EXPECT_LT(threw, kMutantsPerSeed);
}

TEST(CsvFuzz, DatasetEntitiesFile) { fuzz_stream(entities_csv(hostile()), 0xC5F1); }

TEST(CsvFuzz, DatasetEdgeFileWithCrlf) { fuzz_stream(assignments_csv(hostile()), 0xC5F2); }

TEST(CsvFuzz, GroupsFile) { fuzz_stream(groups_csv(hostile()), 0xC5F3); }

TEST(CsvFuzz, Journal) { fuzz_stream(journal(hostile()), 0xC5F4); }

TEST(CsvFuzz, WalPayloads) {
  const core::RbacDelta delta = gen::dataset_as_delta(hostile());
  util::Xoshiro256 rng(0xC5F5);
  std::size_t threw = 0;
  std::size_t mutants = 0;
  for (const core::Mutation& mutation : delta.mutations) {
    const std::string payload = format_journal_record(mutation);
    ASSERT_EQ(reader_record(payload), reference_record(payload)) << payload;
    for (int i = 0; i < 8; ++i, ++mutants) {
      const std::string text = mutate(payload, rng);
      const Outcome expected = reference_record(text);
      ASSERT_EQ(reader_record(text), expected) << "payload: " << text;
      threw += expected.threw ? 1 : 0;
    }
  }
  EXPECT_GT(threw, mutants / 10);
  EXPECT_LT(threw, mutants);
}

}  // namespace
}  // namespace rolediet::io
