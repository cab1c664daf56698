// Round-trip property tests for the CSV and binary dataset formats over
// hostile entity names (commas, quotes, CR/LF, empty, UTF-8), plus the
// record reader and strict-parser rejections and a golden-bytes check that
// the binary format is little-endian on disk.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen/churn.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "io/groups_io.hpp"
#include "io/journal.hpp"
#include "test_helpers.hpp"

namespace rolediet::io {
namespace {

namespace fs = std::filesystem;

/// Shared RAII temp dir (test_helpers.hpp), tagged for this suite.
class TempDir : public testing::ScopedTempDir {
 public:
  TempDir() : ScopedTempDir("rt") {}
};

/// Names that stress every quoting path: separators, quotes, line breaks in
/// all flavours, emptiness, whitespace, and multi-byte UTF-8.
const std::vector<std::string>& hostile_names() {
  static const std::vector<std::string> names = {
      "plain",
      "comma, inside",
      "say \"hi\"",
      "\"leading quote",
      "multi\nline",
      "crlf\r\nline",
      "bare\rcarriage",
      "",
      "  padded  ",
      ",",
      "\n",
      "\"",
      "na\xC3\xAFve \xE5\x90\x8D\xE5\x89\x8D \xF0\x9F\x9A\x80",
  };
  return names;
}

/// Dataset using every hostile name as a user, role, and permission, with a
/// ring of edges so the matrices are non-trivial.
core::RbacDataset hostile_dataset() {
  core::RbacDataset d;
  const auto& names = hostile_names();
  for (const std::string& n : names) d.add_user("u:" + n);
  for (const std::string& n : names) d.add_role("r:" + n);
  for (const std::string& n : names) d.add_permission("p:" + n);
  // Truly empty names (the prefixed list above never produces one).
  d.add_user("");
  d.add_role("");
  d.add_permission("");
  const auto count = static_cast<core::Id>(names.size());
  for (core::Id i = 0; i < count; ++i) {
    d.assign_user(i, (i + 1) % count);
    d.grant_permission(i, (i * 3 + 2) % count);
  }
  return d;
}

void expect_same_dataset(const core::RbacDataset& loaded, const core::RbacDataset& original) {
  ASSERT_EQ(loaded.num_users(), original.num_users());
  ASSERT_EQ(loaded.num_roles(), original.num_roles());
  ASSERT_EQ(loaded.num_permissions(), original.num_permissions());
  for (std::size_t i = 0; i < original.num_users(); ++i)
    EXPECT_EQ(loaded.user_name(static_cast<core::Id>(i)),
              original.user_name(static_cast<core::Id>(i)));
  for (std::size_t i = 0; i < original.num_roles(); ++i)
    EXPECT_EQ(loaded.role_name(static_cast<core::Id>(i)),
              original.role_name(static_cast<core::Id>(i)));
  for (std::size_t i = 0; i < original.num_permissions(); ++i)
    EXPECT_EQ(loaded.permission_name(static_cast<core::Id>(i)),
              original.permission_name(static_cast<core::Id>(i)));
  EXPECT_EQ(loaded.ruam(), original.ruam());
  EXPECT_EQ(loaded.rpam(), original.rpam());
}

// ------------------------------------------------------------- round trips ---

TEST(RoundTrip, CsvSurvivesHostileNames) {
  const core::RbacDataset original = hostile_dataset();
  TempDir dir;
  save_dataset(original, dir.path());
  expect_same_dataset(load_dataset(dir.path()), original);
}

TEST(RoundTrip, BinarySurvivesHostileNames) {
  const core::RbacDataset original = hostile_dataset();
  TempDir dir;
  save_dataset_binary(original, dir.path() / "data.rdb");
  expect_same_dataset(load_dataset_binary(dir.path() / "data.rdb"), original);
}

TEST(RoundTrip, CsvThenBinaryThenCsvIsStable) {
  const core::RbacDataset original = hostile_dataset();
  TempDir dir;
  save_dataset(original, dir.path() / "csv1");
  const core::RbacDataset a = load_dataset(dir.path() / "csv1");
  save_dataset_binary(a, dir.path() / "data.rdb");
  const core::RbacDataset b = load_dataset_binary(dir.path() / "data.rdb");
  save_dataset(b, dir.path() / "csv2");
  expect_same_dataset(load_dataset(dir.path() / "csv2"), original);
}

TEST(RoundTrip, GroupsWithEmbeddedNewlinesInRoleNames) {
  core::RbacDataset d;
  d.add_role("multi\nline role");
  d.add_role("second\r\nrole");
  d.add_role("plain");
  core::RoleGroups groups;
  groups.groups = {{0, 1}};
  groups.normalize();
  TempDir dir;
  save_groups(groups, d, dir.path() / "state.csv");
  EXPECT_EQ(load_groups(d, dir.path() / "state.csv"), groups);
}

// ------------------------------------------------------------ record reader ---

TEST(ReadCsvRecord, JoinsQuotedMultiLineRecords) {
  std::istringstream in("a,b\n\"x\ny\",z\nlast\n");
  CsvReader reader(in);

  std::optional<CsvRecord> record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(std::vector<std::string>(record->fields.begin(), record->fields.end()),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(record->line, 1u);
  EXPECT_EQ(reader.lines_read(), 1u);

  record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(record->line, 2u);
  EXPECT_EQ(reader.lines_read(), 3u);  // the record spans two physical lines
  EXPECT_EQ(std::vector<std::string>(record->fields.begin(), record->fields.end()),
            (std::vector<std::string>{"x\ny", "z"}));

  record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(std::vector<std::string>(record->fields.begin(), record->fields.end()),
            (std::vector<std::string>{"last"}));
  EXPECT_FALSE(reader.next());
}

TEST(ReadCsvRecord, EscapedQuotesDoNotOpenContinuation) {
  std::istringstream in("\"say \"\"hi\"\"\",x\nnext\n");
  CsvReader reader(in);
  const std::optional<CsvRecord> record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(reader.lines_read(), 1u);
  EXPECT_EQ(std::vector<std::string>(record->fields.begin(), record->fields.end()),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(ReadCsvRecord, UnterminatedQuoteAtEofIsReportedByParser) {
  std::istringstream in("\"open\nstill open");
  CsvReader reader(in);
  EXPECT_THROW((void)reader.next(), CsvError);
  EXPECT_EQ(reader.line(), 1u);
  EXPECT_EQ(reader.lines_read(), 2u);  // consumed everything hunting for the close quote
}

// ------------------------------------------------------------ strict parser ---

TEST(CsvStrict, QuoteOpeningMidFieldRejected) {
  EXPECT_THROW(testing::csv_fields("a\"b,c"), CsvError);
  EXPECT_THROW(testing::csv_fields("x,mid\"dle"), CsvError);
  try {
    testing::csv_fields("a\"b");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-field"), std::string::npos) << e.what();
  }
}

TEST(CsvStrict, ContentAfterClosingQuoteRejected) {
  EXPECT_THROW(testing::csv_fields("\"a\"b"), CsvError);
  EXPECT_THROW(testing::csv_fields("\"a\" ,b"), CsvError);
  // A comma or end-of-record right after the close quote stays legal.
  EXPECT_EQ(testing::csv_fields("\"a\",b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(testing::csv_fields("\"a\"\r"), (std::vector<std::string>{"a"}));
}

// ---------------------------------------------------------- journal streams ---

/// Compact churn calendar whose shape varies with the seed, so the property
/// runs cover different phase mixes (and always at least one layoff,
/// onboarding wave, and reorg window).
gen::ChurnConfig stream_config(std::uint64_t seed) {
  gen::ChurnConfig config;
  config.seed = seed;
  config.initial_employees = 30 + seed % 50;
  config.years = 1 + seed % 2;
  config.days_per_year = 60 + (seed % 3) * 30;
  config.daily_hire_rate = 0.005;
  config.daily_attrition_rate = 0.004;
  config.daily_transfer_rate = 0.005;
  config.daily_sprawl_rate = 0.02;
  config.reorg_burst_days = 5;
  config.reorg_intensity = 0.1;
  config.onboarding_wave_fraction = 0.08;
  config.layoff_fraction = 0.1;
  return config;
}

TEST(JournalStream, GeneratedChurnStreamsRoundTripAcrossSeeds) {
  for (std::uint64_t seed : {1ULL, 42ULL, 1337ULL, 0xDEADBEEFULL, 7'777'777ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const gen::ChurnConfig config = stream_config(seed);

    std::ostringstream out;
    const gen::ChurnStats stats = gen::write_churn_journal(out, config);

    // Reference stream: an independent simulator run with the same config.
    gen::ChurnSimulator sim(config);
    std::vector<core::Mutation> expected;
    while (!sim.done()) {
      core::RbacDelta day = sim.next_day();
      for (core::Mutation& m : day.mutations) expected.push_back(std::move(m));
    }
    ASSERT_EQ(stats.mutations, expected.size());
    ASSERT_GT(expected.size(), 0u);

    std::istringstream in(out.str());
    JournalReader reader(in);
    core::Mutation mutation;
    std::size_t index = 0;
    while (reader.next(mutation)) {
      ASSERT_LT(index, expected.size());
      ASSERT_EQ(mutation, expected[index]) << "record " << index + 1;
      ++index;
    }
    EXPECT_EQ(index, expected.size());
    // Churn names never contain line breaks, so records == physical lines.
    EXPECT_EQ(reader.line(), expected.size());
  }
}

TEST(JournalStream, MalformedRecordMidStreamReportsItsOneBasedLine) {
  // Serialize a real churn stream, then wound one record at a known line.
  std::ostringstream out;
  (void)gen::write_churn_journal(out, stream_config(3));
  std::vector<std::string> lines;
  {
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 20u);

  const std::vector<std::string> wounds{
      "frobnicate,role0,emp0",  // unknown tag
      "assign-user,role0",      // missing field
      "add-user,a,b,c",         // excess fields
      "\"torn quote,x",         // unterminated quote
  };
  for (std::size_t w = 0; w < wounds.size(); ++w) {
    SCOPED_TRACE(wounds[w]);
    const std::size_t at = 10 + w * 3;  // 0-based index -> 1-based line at+1
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      text += i == at ? wounds[w] : lines[i];
      text += '\n';
    }
    std::istringstream in(text);
    JournalReader reader(in);
    core::Mutation mutation;
    for (std::size_t i = 0; i < at; ++i) ASSERT_TRUE(reader.next(mutation)) << "record " << i;
    try {
      reader.next(mutation);
      FAIL() << "expected CsvError at line " << at + 1;
    } catch (const CsvError& e) {
      EXPECT_NE(std::string(e.what()).find("journal line " + std::to_string(at + 1)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JournalStream, LineNumbersCountPhysicalLinesThroughMultiLineNames) {
  // A quoted name spanning three physical lines shifts every later line
  // number; the reader must report the *physical* line of the bad record.
  core::RbacDelta delta;
  delta.add_user("multi\nline\nuser").assign_user("role", "multi\nline\nuser");
  std::ostringstream out;
  write_journal(out, delta);
  std::string text = out.str();
  text += "bogus-tag,x\n";  // physical line 7: 3 + 3 + 1

  std::istringstream in(text);
  JournalReader reader(in);
  core::Mutation mutation;
  ASSERT_TRUE(reader.next(mutation));
  EXPECT_EQ(reader.line(), 3u);
  ASSERT_TRUE(reader.next(mutation));
  EXPECT_EQ(reader.line(), 6u);
  try {
    reader.next(mutation);
    FAIL() << "expected CsvError at line 7";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("journal line 7"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------------- binary endianness ---

std::vector<unsigned char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return {bytes.begin(), bytes.end()};
}

TEST(BinaryFormat, GoldenBytesAreLittleEndian) {
  core::RbacDataset d;
  d.add_user("u");
  TempDir dir;
  save_dataset_binary(d, dir.path() / "one.rdb");
  const std::vector<unsigned char> bytes = slurp(dir.path() / "one.rdb");
  // Layout: magic(8) + 5 x u64 counts + str("u") as u32 len + byte + digest.
  ASSERT_EQ(bytes.size(), 8u + 5 * 8 + 4 + 1 + 8);
  // users = 1: low byte first, the rest zero.
  EXPECT_EQ(bytes[8], 1u);
  for (std::size_t i = 9; i < 48; ++i) EXPECT_EQ(bytes[i], 0u) << "offset " << i;
  // name length u32 = 1, then the byte 'u'.
  EXPECT_EQ(bytes[48], 1u);
  EXPECT_EQ(bytes[49], 0u);
  EXPECT_EQ(bytes[50], 0u);
  EXPECT_EQ(bytes[51], 0u);
  EXPECT_EQ(bytes[52], static_cast<unsigned char>('u'));
  // Trailing digest: FNV-1a over the payload (everything after the magic),
  // stored little-endian. Recomputing it here pins both properties — the
  // checksum covers the *serialized* bytes and the digest encoding is LE.
  std::uint64_t fnv = 0xCBF29CE484222325ULL;
  for (std::size_t i = 8; i < bytes.size() - 8; ++i) {
    fnv ^= bytes[i];
    fnv *= 0x100000001B3ULL;
  }
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i)
    stored |= static_cast<std::uint64_t>(bytes[bytes.size() - 8 + i]) << (8 * i);
  EXPECT_EQ(stored, fnv);
}

TEST(BinaryFormat, KnownLittleEndianFileLoads) {
  // A file assembled byte by byte (no host integers involved): one role
  // named "r", one user named "x", one assignment edge (0, 0).
  std::vector<unsigned char> bytes = {'R', 'D', 'I', 'E', 'T', '1', '\n', '\0'};
  auto put_u64 = [&](std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
  };
  auto put_u32 = [&](std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
  };
  put_u64(1);  // users
  put_u64(1);  // roles
  put_u64(0);  // permissions
  put_u64(1);  // assignments
  put_u64(0);  // grants
  put_u32(1);
  bytes.push_back('x');  // user name
  put_u32(1);
  bytes.push_back('r');  // role name
  put_u32(0);            // edge: role 0,
  put_u32(0);            //       user 0
  std::uint64_t fnv = 0xCBF29CE484222325ULL;
  for (std::size_t i = 8; i < bytes.size(); ++i) {
    fnv ^= bytes[i];
    fnv *= 0x100000001B3ULL;
  }
  for (std::size_t i = 0; i < 8; ++i) bytes.push_back(static_cast<unsigned char>(fnv >> (8 * i)));

  TempDir dir;
  {
    std::ofstream out(dir.path() / "golden.rdb", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const core::RbacDataset d = load_dataset_binary(dir.path() / "golden.rdb");
  EXPECT_EQ(d.num_users(), 1u);
  EXPECT_EQ(d.num_roles(), 1u);
  EXPECT_EQ(d.user_name(0), "x");
  EXPECT_EQ(d.role_name(0), "r");
  EXPECT_EQ(d.ruam().nnz(), 1u);
}

}  // namespace
}  // namespace rolediet::io
