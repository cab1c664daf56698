// Tests for CSV dataset I/O and the JSON writer, including failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/framework.hpp"
#include "io/csv.hpp"
#include "io/json_writer.hpp"
#include "io/groups_io.hpp"
#include "io/report_csv.hpp"
#include "test_helpers.hpp"

namespace rolediet::io {
namespace {

namespace fs = std::filesystem;

/// Shared RAII temp dir (test_helpers.hpp), tagged for this suite.
class TempDir : public testing::ScopedTempDir {
 public:
  TempDir() : ScopedTempDir("io") {}
};

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

// -------------------------------------------------------------- csv parse ---

TEST(CsvParse, SimpleFields) {
  EXPECT_EQ(testing::csv_fields("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(testing::csv_fields("one"), (std::vector<std::string>{"one"}));
  EXPECT_EQ(testing::csv_fields(",x,"), (std::vector<std::string>{"", "x", ""}));
}

TEST(CsvParse, QuotedFields) {
  EXPECT_EQ(testing::csv_fields("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(testing::csv_fields("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvParse, CrlfTolerated) {
  EXPECT_EQ(testing::csv_fields("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW(testing::csv_fields("\"oops,b"), CsvError);
}

// ------------------------------------------------------------ csv reader ---

struct ReadRecord {
  std::vector<std::string> fields;
  std::size_t line = 0;
  bool operator==(const ReadRecord&) const = default;
};

/// Every record of `text`, read `block` bytes at a time; the reader's final
/// buffer size goes to `capacity`.
std::vector<ReadRecord> read_all(const std::string& text, std::size_t block,
                                 std::size_t& capacity) {
  std::istringstream in(text);
  CsvReader reader(in, {}, block);
  std::vector<ReadRecord> out;
  while (const std::optional<CsvRecord> record = reader.next()) {
    out.push_back({{record->fields.begin(), record->fields.end()}, record->line});
  }
  capacity = reader.capacity();
  return out;
}

TEST(CsvReader, RecordsStraddleTheBlockEdgeAtEveryOffset) {
  constexpr std::size_t kBlock = 16;
  const std::vector<std::pair<std::string, ReadRecord>> cases = {
      {"plain,record", {{"plain", "record"}, 2}},
      {"\"multi\nline\",x", {{"multi\nline", "x"}, 2}},
      {"\"say \"\"hi\"\"\",y", {{"say \"hi\"", "y"}, 2}},
  };
  for (const auto& [record, expected] : cases) {
    const std::size_t lines = 1 + std::count(record.begin(), record.end(), '\n');
    // A first record of `pad` bytes moves the tested one across the edge at
    // byte 16, one offset at a time.
    for (std::size_t pad = 1; pad < kBlock; ++pad) {
      SCOPED_TRACE(record + " after " + std::to_string(pad) + " bytes");
      std::size_t capacity = 0;
      const std::vector<ReadRecord> got =
          read_all(std::string(pad, 'a') + "\n" + record + "\nlast\n", kBlock, capacity);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[0], (ReadRecord{{std::string(pad, 'a')}, 1}));
      EXPECT_EQ(got[1], expected);
      EXPECT_EQ(got[2], (ReadRecord{{"last"}, 2 + lines}));
      EXPECT_EQ(capacity, kBlock);  // every record fits: the buffer never grows
    }
  }
}

TEST(CsvReader, RecordLongerThanTheBlockGrowsTheBufferOnce) {
  constexpr std::size_t kBlock = 16;
  const std::string longer = "a-role-name-of-24-bytes,x";  // 25 bytes + newline
  std::size_t capacity = 0;
  const std::vector<ReadRecord> got = read_all("short\n" + longer + "\nend\n", kBlock, capacity);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], (ReadRecord{{"a-role-name-of-24-bytes", "x"}, 2}));
  EXPECT_EQ(got[2], (ReadRecord{{"end"}, 3}));
  EXPECT_EQ(capacity, 2 * kBlock);
}

TEST(CsvReader, MultiBlockJournalOfShortRecordsNeverGrowsTheBuffer) {
  std::string text;
  constexpr std::size_t kRecords = 20000;  // ~420 KB: several default blocks
  for (std::size_t i = 0; i < kRecords; ++i)
    text += "assign-user,r" + std::to_string(i % 97) + ",u" + std::to_string(i) + "\n";
  ASSERT_GT(text.size(), 4 * CsvReader::kBlockSize);
  std::size_t capacity = 0;
  const std::vector<ReadRecord> got = read_all(text, CsvReader::kBlockSize, capacity);
  ASSERT_EQ(got.size(), kRecords);
  EXPECT_EQ(got.back(), (ReadRecord{{"assign-user", "r17", "u19999"}, kRecords}));
  EXPECT_EQ(capacity, CsvReader::kBlockSize);
}

TEST(CsvReader, LastRecordWithoutNewline) {
  std::size_t capacity = 0;
  EXPECT_EQ(read_all("a,b\nc,d", 4, capacity),
            (std::vector<ReadRecord>{{{"a", "b"}, 1}, {{"c", "d"}, 2}}));
  EXPECT_EQ(read_all("a\n\"x\ny\",z", 4, capacity),
            (std::vector<ReadRecord>{{{"a"}, 1}, {{"x\ny", "z"}, 2}}));
}

TEST(CsvReader, CrlfThroughout) {
  const std::string text = "h1,h2\r\na,b\r\n\"q\r\nq\",c\r\n\r\nlast,\"x\"\r\n";
  for (const std::size_t block : {std::size_t{3}, std::size_t{7}, CsvReader::kBlockSize}) {
    std::size_t capacity = 0;
    // The CR inside the quoted field is content; a lone "\r" line is blank.
    EXPECT_EQ(read_all(text, block, capacity),
              (std::vector<ReadRecord>{{{"h1", "h2"}, 1},
                                       {{"a", "b"}, 2},
                                       {{"q\r\nq", "c"}, 3},
                                       {{"last", "x"}, 6}}))
        << "block " << block;
  }
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(escape_csv_field("plain"), "plain");
  EXPECT_EQ(escape_csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(escape_csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// --------------------------------------------------------------- dataset ---

TEST(CsvDataset, RoundTripFigure1) {
  const core::RbacDataset original = rolediet::testing::figure1_dataset();
  TempDir dir;
  save_dataset(original, dir.path());
  const core::RbacDataset loaded = load_dataset(dir.path());

  EXPECT_EQ(loaded.num_users(), original.num_users());
  EXPECT_EQ(loaded.num_roles(), original.num_roles());
  EXPECT_EQ(loaded.num_permissions(), original.num_permissions());
  EXPECT_EQ(loaded.ruam(), original.ruam());
  EXPECT_EQ(loaded.rpam(), original.rpam());
  // Standalone P01 survives the round trip via entities.csv.
  EXPECT_TRUE(loaded.find_permission("P01").has_value());
}

TEST(CsvDataset, NamesWithCommasRoundTrip) {
  core::RbacDataset d;
  const core::Id r = d.add_role("role, with comma");
  const core::Id u = d.add_user("user \"quoted\"");
  d.assign_user(r, u);
  TempDir dir;
  save_dataset(d, dir.path());
  const core::RbacDataset loaded = load_dataset(dir.path());
  EXPECT_TRUE(loaded.find_role("role, with comma").has_value());
  EXPECT_TRUE(loaded.find_user("user \"quoted\"").has_value());
  EXPECT_EQ(loaded.ruam().nnz(), 1u);
}

TEST(CsvDataset, LoadWithoutOptionalFiles) {
  TempDir dir;
  write_file(dir.path() / "assignments.csv", "role,user\nadmin,alice\n");
  const core::RbacDataset d = load_dataset(dir.path());
  EXPECT_EQ(d.num_roles(), 1u);
  EXPECT_EQ(d.num_users(), 1u);
  EXPECT_EQ(d.num_permissions(), 0u);
}

TEST(CsvDataset, EmptyDirectoryLoadsEmptyDataset) {
  TempDir dir;
  const core::RbacDataset d = load_dataset(dir.path());
  EXPECT_EQ(d.num_roles(), 0u);
}

TEST(CsvDataset, MissingDirectoryThrowsNamingThePath) {
  TempDir dir;
  write_file(dir.path() / "assignments.csv", "role,user\nadmin,alice\n");
  for (const fs::path& path : {dir.path() / "no-such-dir", dir.path() / "assignments.csv"}) {
    try {
      (void)load_dataset(path);
      ADD_FAILURE() << "expected CsvError for " << path;
    } catch (const CsvError& e) {
      EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos) << e.what();
    }
  }
}

TEST(CsvDataset, BadHeaderThrows) {
  TempDir dir;
  write_file(dir.path() / "assignments.csv", "user,role\nalice,admin\n");
  EXPECT_THROW(load_dataset(dir.path()), CsvError);
}

TEST(CsvDataset, WrongFieldCountThrowsWithLineNumber) {
  TempDir dir;
  write_file(dir.path() / "grants.csv", "role,permission\nadmin,read,extra\n");
  try {
    load_dataset(dir.path());
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos) << e.what();
  }
}

TEST(CsvDataset, QuotingErrorsNameThePathAndTheRecordsFirstLine) {
  struct File {
    const char* name;
    const char* header;
    const char* multi_line;  // a good record on lines 2-3
  };
  const File files[] = {{"entities.csv", "kind,name", "user,\"multi\nline\""},
                        {"assignments.csv", "role,user", "\"multi\nline\",u0"},
                        {"grants.csv", "role,permission", "\"multi\nline\",p0"}};
  // Each starts on physical line 4: a quote opening mid-field, a character
  // after a closing quote, and an unterminated quote — running on to EOF, or
  // at EOF on its own line with and without a final newline.
  const std::vector<std::string> bad = {"r\"2,u1\n", "\"r2\"x,u1\n", "\"r2,u1\nr3,u3\n",
                                        "\"r2,u1\n", "\"r2,u1"};
  for (const File& file : files) {
    for (const std::string& record : bad) {
      SCOPED_TRACE(std::string(file.name) + ": " + record);
      TempDir dir;
      write_file(dir.path() / file.name,
                 std::string(file.header) + "\n" + file.multi_line + "\n" + record);
      try {
        (void)load_dataset(dir.path());
        ADD_FAILURE() << "expected CsvError";
      } catch (const CsvError& e) {
        EXPECT_EQ(std::string(e.what()).rfind((dir.path() / file.name).string() + ":4: ", 0), 0u)
            << e.what();
      }
    }
  }
}

TEST(CsvDataset, SaveThrowsNamingTheFileWhenTheDiskIsFull) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  TempDir dir;
  fs::create_directories(dir.path() / "out");
  for (const char* name : {"entities.csv", "assignments.csv", "grants.csv"})
    fs::create_symlink("/dev/full", dir.path() / "out" / name);
  try {
    save_dataset(rolediet::testing::figure1_dataset(), dir.path() / "out");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find((dir.path() / "out" / "entities.csv").string()),
              std::string::npos)
        << e.what();
  }
}

TEST(CsvDataset, UnknownEntityKindThrows) {
  TempDir dir;
  write_file(dir.path() / "entities.csv", "kind,name\ndragon,smaug\n");
  EXPECT_THROW(load_dataset(dir.path()), CsvError);
}

TEST(CsvDataset, DuplicateEdgesTolerated) {
  TempDir dir;
  write_file(dir.path() / "assignments.csv", "role,user\nr,u\nr,u\nr,u\n");
  const core::RbacDataset d = load_dataset(dir.path());
  EXPECT_EQ(d.ruam().nnz(), 1u);
}

TEST(CsvDataset, BlankLinesSkipped) {
  TempDir dir;
  write_file(dir.path() / "assignments.csv", "role,user\n\nr,u\n\n");
  EXPECT_EQ(load_dataset(dir.path()).ruam().nnz(), 1u);
}

// ------------------------------------------------------------------ json ---

TEST(JsonWriter, BasicDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("role \"x\"\n");
  w.key("count");
  w.value(std::uint64_t{42});
  w.key("ratio");
  w.value(0.5);
  w.key("ok");
  w.value(true);
  w.key("missing");
  w.null();
  w.key("items");
  w.begin_array();
  w.value(std::int64_t{-1});
  w.value(std::int64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"role \\\"x\\\"\\n\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"missing\":null,\"items\":[-1,2]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value("no key"), std::logic_error);
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("key in array"), std::logic_error);
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("dangling");
    EXPECT_THROW(w.end_object(), std::logic_error);
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // unclosed
  }
  {
    JsonWriter w;
    EXPECT_THROW(w.end_array(), std::logic_error);
  }
}

TEST(JsonWriter, ControlCharactersEscaped) {
  JsonWriter w;
  w.begin_array();
  w.value(std::string_view("a\x01"
                           "b\tc"));
  w.end_array();
  EXPECT_EQ(w.str(), "[\"a\\u0001b\\tc\"]");
}

TEST(JsonWriter, EveryByteAndIntegerExtremeMatchesTheStreamForm) {
  // The writer appends to one string; its bytes must equal the stream-based
  // form it replaced: that escaper, and `ostream << n` for integers.
  const auto stream_escaped = [](std::string_view s) {
    std::ostringstream out;
    out << '"';
    for (char c : s) {
      switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\r': out << "\\r"; break;
        case '\t': out << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out << buf;
          } else {
            out << c;
          }
      }
    }
    out << '"';
    return out.str();
  };
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte += static_cast<char>(b);
  every_byte += "tail";

  JsonWriter w;
  w.begin_object();
  w.key(every_byte);
  w.value(std::string_view(every_byte));
  w.key("");
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::uint64_t{0});
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(1.0 / 3.0);
  w.end_array();
  w.end_object();

  std::ostringstream expected;
  expected << '{' << stream_escaped(every_byte) << ':' << stream_escaped(every_byte) << ','
           << stream_escaped("") << ":[" << std::numeric_limits<std::int64_t>::min() << ','
           << std::numeric_limits<std::int64_t>::max() << ",0,"
           << std::numeric_limits<std::uint64_t>::max() << ",0.333333333]}";  // %.9g
  EXPECT_EQ(w.str(), expected.str());
  EXPECT_EQ(std::move(w).str(), expected.str());  // the rvalue form hands the buffer over
}

TEST(ReportCsv, OneRowPerFinding) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  const core::AuditReport report = core::audit(d);
  const std::string csv = report_to_csv(report, d);

  EXPECT_NE(csv.find("type,group,entity\n"), std::string::npos);
  EXPECT_NE(csv.find("standalone-permission,,P01\n"), std::string::npos);
  EXPECT_NE(csv.find("role-without-users,,R03\n"), std::string::npos);
  EXPECT_NE(csv.find("single-user-role,,R01\n"), std::string::npos);
  EXPECT_NE(csv.find("single-user-role,,R05\n"), std::string::npos);
  // Group findings: both members share group ordinal 0.
  EXPECT_NE(csv.find("same-user-roles,0,R02\n"), std::string::npos);
  EXPECT_NE(csv.find("same-user-roles,0,R04\n"), std::string::npos);
  EXPECT_NE(csv.find("same-permission-roles,0,R04\n"), std::string::npos);
  EXPECT_NE(csv.find("same-permission-roles,0,R05\n"), std::string::npos);
}

TEST(ReportCsv, EscapesAwkwardNames) {
  core::RbacDataset d;
  d.add_role("lonely, but quoted \"role\"");  // standalone role with a comma
  const core::AuditReport report = core::audit(d);
  const std::string csv = report_to_csv(report, d);
  EXPECT_NE(csv.find("standalone-role,,\"lonely, but quoted \"\"role\"\"\"\n"),
            std::string::npos);
}

TEST(ReportCsv, EmptyReportIsJustHeader) {
  const core::RbacDataset d;
  const std::string csv = report_to_csv(core::audit(d), d);
  EXPECT_EQ(csv, "type,group,entity\n");
}

// ---------------------------------------------------------- groups state ---

TEST(GroupsIo, RoundTrip) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  core::RoleGroups groups;
  groups.groups = {{1, 3}, {2, 4}};
  groups.normalize();
  TempDir dir;
  save_groups(groups, d, dir.path() / "state.csv");
  EXPECT_EQ(load_groups(d, dir.path() / "state.csv"), groups);
}

TEST(GroupsIo, SurvivesRoleIdReshuffle) {
  // Names are the durable key: a dataset with the same roles interned in a
  // different order must resolve to the corresponding new indices.
  const core::RbacDataset original = rolediet::testing::figure1_dataset();
  core::RoleGroups groups;
  groups.groups = {{1, 3}};  // R02, R04 in the original
  TempDir dir;
  save_groups(groups, original, dir.path() / "state.csv");

  core::RbacDataset reshuffled;
  for (const char* name : {"R05", "R04", "R03", "R02", "R01"}) reshuffled.add_role(name);
  const core::RoleGroups loaded = load_groups(reshuffled, dir.path() / "state.csv");
  ASSERT_EQ(loaded.group_count(), 1u);
  EXPECT_EQ(loaded.groups[0],
            (std::vector<std::size_t>{*reshuffled.find_role("R04"),
                                      *reshuffled.find_role("R02")}) )
      << "expected name-based resolution";
}

TEST(GroupsIo, UnknownRoleThrows) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  TempDir dir;
  write_file(dir.path() / "state.csv", "group,role\n0,R01\n0,R99\n");
  EXPECT_THROW(load_groups(d, dir.path() / "state.csv"), CsvError);
}

TEST(GroupsIo, BadHeaderOrOrdinalThrows) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  TempDir dir;
  write_file(dir.path() / "state.csv", "role,group\nR01,0\n");
  EXPECT_THROW(load_groups(d, dir.path() / "state.csv"), CsvError);
  write_file(dir.path() / "state2.csv", "group,role\nxyz,R01\n");
  EXPECT_THROW(load_groups(d, dir.path() / "state2.csv"), CsvError);
  EXPECT_THROW(load_groups(d, dir.path() / "missing.csv"), CsvError);
}

TEST(GroupsIo, QuotingErrorsNameThePathAndLine) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  for (const char* record : {"0,R\"02\n", "0,\"R02\"x\n", "0,\"R02\n1,R03\n", "0,\"R02"}) {
    SCOPED_TRACE(record);
    TempDir dir;
    write_file(dir.path() / "state.csv", std::string("group,role\n0,R01\n") + record);
    try {
      (void)load_groups(d, dir.path() / "state.csv");
      ADD_FAILURE() << "expected CsvError";
    } catch (const CsvError& e) {
      EXPECT_EQ(std::string(e.what()).rfind((dir.path() / "state.csv").string() + ":3: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(GroupsIo, OrdinalsMustBeWholeDecimalFields) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  for (const char* ordinal : {"3x", "-1", " 3", "0x1", "", "18446744073709551616"}) {
    SCOPED_TRACE(std::string("ordinal '") + ordinal + "'");
    TempDir dir;
    write_file(dir.path() / "state.csv",
               std::string("group,role\n3,R01\n") + ordinal + ",R02\n3,R03\n");
    try {
      (void)load_groups(d, dir.path() / "state.csv");
      ADD_FAILURE() << "expected CsvError";
    } catch (const CsvError& e) {
      EXPECT_NE(std::string(e.what()).find((dir.path() / "state.csv").string() +
                                           ":3: bad group ordinal"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(GroupsIo, SaveThrowsWhenTheDiskIsFull) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  core::RoleGroups groups;
  groups.groups = {{1, 3}};
  try {
    save_groups(groups, d, "/dev/full");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(GroupsIo, SingletonGroupsDropped) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  TempDir dir;
  write_file(dir.path() / "state.csv", "group,role\n0,R01\n1,R02\n1,R03\n");
  const core::RoleGroups loaded = load_groups(d, dir.path() / "state.csv");
  ASSERT_EQ(loaded.group_count(), 1u);
  EXPECT_EQ(loaded.groups[0], (std::vector<std::size_t>{1, 2}));
}

TEST(ReportJson, ContainsExpectedStructure) {
  const core::RbacDataset d = rolediet::testing::figure1_dataset();
  const core::AuditReport report = core::audit(d);
  const std::string json = report_to_json(report, d);

  EXPECT_NE(json.find("\"method\":\"role-diet\""), std::string::npos);
  EXPECT_NE(json.find("\"roles\":5"), std::string::npos);
  // Same-user group of R02/R04 listed by role name.
  EXPECT_NE(json.find("[\"R02\",\"R04\"]"), std::string::npos);
  EXPECT_NE(json.find("[\"R04\",\"R05\"]"), std::string::npos);
  EXPECT_NE(json.find("\"reducible_roles\":2"), std::string::npos);
  EXPECT_NE(json.find("\"timed_out\":false"), std::string::npos);
}

}  // namespace
}  // namespace rolediet::io
