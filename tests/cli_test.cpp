// End-to-end tests of the rolediet command-line tool (cli::run with captured
// streams and temp directories).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "io/csv.hpp"
#include "linalg/kernels/kernels.hpp"
#include "test_helpers.hpp"

namespace rolediet::cli {
namespace {

namespace fs = std::filesystem;

/// Shared RAII temp dir (test_helpers.hpp), tagged for this suite; path()
/// keeps this suite's string-typed accessor (cli::run takes strings).
class CliDir : public testing::ScopedTempDir {
 public:
  CliDir() : ScopedTempDir("cli") {}
  [[nodiscard]] std::string path(const std::string& sub = "") const { return str(sub); }
};

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Cli, NoArgsPrintsHelpAndFails) {
  const CliResult r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage: rolediet"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  for (const char* flag : {"help", "--help", "-h"}) {
    const CliResult r = run_cli({flag});
    EXPECT_EQ(r.code, 0) << flag;
    EXPECT_NE(r.out.find("subcommands:"), std::string::npos);
  }
}

TEST(Cli, UnknownSubcommand) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, GenerateOrgThenAudit) {
  CliDir dir;
  const CliResult gen = run_cli({"generate", "org", "--seed", "11", dir.path("data")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("generated org"), std::string::npos);

  const CliResult audit = run_cli({"audit", dir.path("data")});
  ASSERT_EQ(audit.code, 0) << audit.err;
  EXPECT_NE(audit.out.find("RBAC inefficiency audit (method: role-diet)"), std::string::npos);
  EXPECT_NE(audit.out.find("same-users groups"), std::string::npos);
}

TEST(Cli, AuditWritesJsonAndCsv) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"audit", "--json", dir.path("report.json"), "--csv",
                               dir.path("findings.csv"), dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string json = slurp(dir.path("report.json"));
  EXPECT_NE(json.find("\"method\":\"role-diet\""), std::string::npos);
  // The reduction block surfaces the cleanup plan sizes next to the findings.
  EXPECT_NE(json.find("\"reduction\":"), std::string::npos);
  EXPECT_NE(json.find("\"consolidation\":"), std::string::npos);
  EXPECT_NE(json.find("\"remediation\":"), std::string::npos);
  EXPECT_NE(json.find("\"roles_removed\":"), std::string::npos);
  const std::string csv = slurp(dir.path("findings.csv"));
  EXPECT_NE(csv.find("same-user-roles,0,R02"), std::string::npos);
}

TEST(Cli, AuditMethodAndThresholdOptions) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult dbscan =
      run_cli({"audit", "--method", "exact-dbscan", "--threshold", "2", dir.path("data")});
  ASSERT_EQ(dbscan.code, 0) << dbscan.err;
  EXPECT_NE(dbscan.out.find("method: exact-dbscan"), std::string::npos);
  EXPECT_NE(dbscan.out.find("t=2"), std::string::npos);

  const CliResult jaccard = run_cli({"audit", "--jaccard", "0.5", dir.path("data")});
  ASSERT_EQ(jaccard.code, 0) << jaccard.err;
  EXPECT_NE(jaccard.out.find("j<=0.50"), std::string::npos);
}

TEST(Cli, AuditRejectsBadOptions) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  EXPECT_EQ(run_cli({"audit", "--method", "magic", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"audit", "--threshold", "banana", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"audit", "--jaccard", "1.5", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"audit"}).code, 2);
  EXPECT_EQ(run_cli({"audit", dir.path("data"), "extra"}).code, 2);
}

TEST(Cli, NumericOptionsRejectOverflowAndNonFinite) {
  // Regression: out-of-range integers used to escape std::stoull as an
  // uncaught std::out_of_range (process abort), and "nan"/"inf" sailed
  // through std::stod into range checks that NaN compares false against.
  // All of these must exit 2 with a clean usage error instead.
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const std::vector<std::vector<std::string>> bad = {
      {"audit", "--threads", "99999999999999999999", dir.path("data")},
      {"audit", "--threshold", "99999999999999999999", dir.path("data")},
      {"audit", "--budget", "nan", dir.path("data")},
      {"audit", "--budget", "inf", dir.path("data")},
      {"audit", "--budget", "1e999", dir.path("data")},
      {"audit", "--jaccard", "nan", dir.path("data")},
      {"audit", "--jaccard", "-inf", dir.path("data")},
      {"generate", "adversarial", "--jaccard", "nan", "similarity-wall", dir.path("adv")},
  };
  for (const auto& args : bad) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[1] << " " << args[2];
    EXPECT_NE(r.err.find("usage error"), std::string::npos) << args[1] << " " << args[2];
  }
}

TEST(Cli, KernelFlagSelectsDispatchTarget) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));

  // Forcing the always-available scalar target works with the flag before or
  // after the subcommand, and the report is oblivious to the choice.
  const CliResult before = run_cli({"--kernel", "scalar", "audit", dir.path("data")});
  ASSERT_EQ(before.code, 0) << before.err;
  EXPECT_NE(before.out.find("RBAC inefficiency audit"), std::string::npos);
  EXPECT_EQ(before.out.find("scalar"), std::string::npos) << "report must not echo the kernel";

  const CliResult after = run_cli({"audit", "--kernel", "scalar", dir.path("data")});
  ASSERT_EQ(after.code, 0) << after.err;

  const CliResult bogus = run_cli({"--kernel", "sse9", "audit", dir.path("data")});
  EXPECT_EQ(bogus.code, 2);
  EXPECT_NE(bogus.err.find("unknown --kernel"), std::string::npos);

  // avx2 and neon are never both runnable, so at least one must be rejected
  // with the capability list — on every host this test runs on.
  std::size_t rejected = 0;
  for (const char* isa : {"avx2", "neon"}) {
    const CliResult r = run_cli({"--kernel", isa, "version"});
    if (r.code == 2) {
      ++rejected;
      EXPECT_NE(r.err.find("not supported on this CPU"), std::string::npos) << isa;
      EXPECT_NE(r.err.find("supported: scalar"), std::string::npos) << isa;
    }
  }
  EXPECT_GE(rejected, 1u);

  // The flag mutates process-wide dispatch state; put detection back for the
  // rest of the suite.
  linalg::kernels::set_active_isa(linalg::kernels::KernelIsa::kAuto);
}

TEST(Cli, VersionReportsKernelCapability) {
  const CliResult r = run_cli({"version"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("kernels: active "), std::string::npos);
  EXPECT_NE(r.out.find("supported: scalar"), std::string::npos);
}

TEST(Cli, AuditMissingDatasetFails) {
  const CliResult r = run_cli({"audit", "/nonexistent/rolediet/data"});
  EXPECT_EQ(r.code, 0);  // empty dir semantics: loads an empty dataset
  // Loading a file path that exists but is not a directory is also tolerated
  // (all three CSV files are optional); a hard I/O failure path is covered
  // by the diet test below writing to an unwritable location.
}

TEST(Cli, ReplayStreamsJournalAndReaudits) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  {
    std::ofstream journal(dir.path("journal.csv"));
    journal << "add-user,U05\n"
               "assign-user,R01,U05\n"
               "revoke-user,R04,U03\n"
               "grant-permission,R03,P02\n";
  }
  const CliResult r = run_cli({"replay", "--every", "2", "--json", dir.path("report.json"),
                               dir.path("data"), dir.path("journal.csv")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("replay: baseline audit"), std::string::npos);
  // 4 mutations at --every 2 -> two delta re-audits after the baseline.
  EXPECT_NE(r.out.find("replay: 2 mutations applied, version 2"), std::string::npos);
  EXPECT_NE(r.out.find("replay: 4 mutations applied, version 4"), std::string::npos);
  EXPECT_NE(r.out.find("replay: journal exhausted after 4 mutations (3 audits)"),
            std::string::npos);
  const std::string json = slurp(dir.path("report.json"));
  EXPECT_NE(json.find("\"options\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\":1"), std::string::npos);
}

TEST(Cli, ReplayRejectsBadArguments) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  EXPECT_EQ(run_cli({"replay", dir.path("data")}).code, 2);  // missing journal
  EXPECT_EQ(run_cli({"replay", "--every", "0", dir.path("data"), "j.csv"}).code, 2);
  EXPECT_EQ(run_cli({"replay", dir.path("data"), dir.path("nope.csv")}).code, 1);
}

TEST(Cli, DietDryRunWritesNothing) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"diet", "--dry-run", dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("remediation plan:"), std::string::npos);
  EXPECT_NE(r.out.find("dry run: no changes written"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir.path("out")));
}

TEST(Cli, DietAppliesAndWrites) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"diet", dir.path("data"), dir.path("out")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("diet complete"), std::string::npos);
  ASSERT_TRUE(fs::exists(dir.path("out")));

  const core::RbacDataset slim = io::load_dataset(dir.path("out"));
  // Fig. 1: R02/R03 removed would be wrong — R02 HAS users. Remediation
  // removes R03 (no users) and R02 (no perms)? R02 has users but no perms ->
  // removed; R03 perms but no users -> removed; then consolidation merges
  // nothing further among survivors R01, R04, R05 (R04/R05 share perms ->
  // merged). Expect 2 roles left.
  EXPECT_EQ(slim.num_roles(), 2u);
  EXPECT_TRUE(slim.find_role("R01").has_value());
}

TEST(Cli, DietSkipFlags) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"diet", "--skip-remediation", "--skip-consolidation",
                               dir.path("data"), dir.path("out")});
  ASSERT_EQ(r.code, 0) << r.err;
  const core::RbacDataset same = io::load_dataset(dir.path("out"));
  EXPECT_EQ(same.num_roles(), 5u);
}

TEST(Cli, DietRemoveEntitiesFlag) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"diet", "--remove-standalone-entities", dir.path("data"),
                               dir.path("out")});
  ASSERT_EQ(r.code, 0) << r.err;
  const core::RbacDataset slim = io::load_dataset(dir.path("out"));
  EXPECT_EQ(slim.find_permission("P01"), std::nullopt);  // the standalone permission
}

TEST(Cli, MineWritesVerifiedPlanJsonAndMigratedDataset) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"mine", "--json", dir.path("plan.json"), dir.path("data"),
                               dir.path("out")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("role mining plan:"), std::string::npos);
  EXPECT_NE(r.out.find("equivalence verified"), std::string::npos);
  EXPECT_NE(r.out.find("migrated dataset written to"), std::string::npos);

  const std::string json = slurp(dir.path("plan.json"));
  EXPECT_NE(json.find("\"roles_before\":"), std::string::npos);
  EXPECT_NE(json.find("\"roles_after\":"), std::string::npos);
  EXPECT_NE(json.find("\"used_duplicate_merge_fallback\":"), std::string::npos);
  EXPECT_NE(json.find("\"verified\":true"), std::string::npos);

  // Users and permissions survive the migration verbatim; only roles change.
  const core::RbacDataset migrated = io::load_dataset(dir.path("out"));
  const core::RbacDataset original = rolediet::testing::figure1_dataset();
  EXPECT_EQ(migrated.num_users(), original.num_users());
  EXPECT_EQ(migrated.num_permissions(), original.num_permissions());
  EXPECT_LE(migrated.num_roles(), original.num_roles());
}

TEST(Cli, MineHonorsCostAndCapOptions) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"mine", "--mine-cost", "1:0.5", "--max-roles-per-user", "4",
                               "--max-perms-per-role", "8", dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("roles/user <= 4"), std::string::npos);
  EXPECT_NE(r.out.find("perms/role <= 8"), std::string::npos);
  EXPECT_NE(r.out.find("equivalence verified"), std::string::npos);
}

TEST(Cli, MineRejectsBadArguments) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  EXPECT_EQ(run_cli({"mine"}).code, 2);  // missing dataset directory
  EXPECT_EQ(run_cli({"mine", dir.path("data"), "out", "extra"}).code, 2);
  // --mine-cost must be W_ROLES:W_EDGES, both >= 0, not both zero.
  EXPECT_EQ(run_cli({"mine", "--mine-cost", "1", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"mine", "--mine-cost", "0:0", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"mine", "--mine-cost", "-1:1", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"mine", "--mine-cost", "nan:1", dir.path("data")}).code, 2);
  EXPECT_EQ(run_cli({"mine", "--budget", "-1", dir.path("data")}).code, 2);
}

TEST(Cli, MineInfeasibleCapsFailCleanly) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  // Fig. 1 has a user holding two effective permissions; one role of one
  // permission cannot cover it, so plan_mining throws and the CLI exits 1.
  const CliResult r = run_cli({"mine", "--max-roles-per-user", "1", "--max-perms-per-role",
                               "1", dir.path("data")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, GenerateMatrix) {
  CliDir dir;
  const CliResult r = run_cli({"generate", "matrix", "--roles", "200", "--users", "100",
                               "--seed", "3", dir.path("m")});
  ASSERT_EQ(r.code, 0) << r.err;
  const core::RbacDataset d = io::load_dataset(dir.path("m"));
  EXPECT_EQ(d.num_roles(), 200u);
  EXPECT_EQ(d.num_users(), 100u);
  EXPECT_GT(d.ruam().nnz(), 0u);
}

TEST(Cli, GenerateRejectsUnknownKind) {
  const CliResult r = run_cli({"generate", "chaos", "/tmp/x"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown kind"), std::string::npos);
}

TEST(Cli, CompareRunsAllMethods) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"compare", dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("role-diet"), std::string::npos);
  EXPECT_NE(r.out.find("exact-dbscan"), std::string::npos);
  EXPECT_NE(r.out.find("approx-hnsw"), std::string::npos);

  const CliResult similar = run_cli({"compare", "--threshold", "1", dir.path("data")});
  ASSERT_EQ(similar.code, 0) << similar.err;
  EXPECT_NE(similar.out.find("similar, t=1"), std::string::npos);
}

TEST(Cli, ConvertCsvToBinaryAndBack) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult to_bin = run_cli({"convert", dir.path("data"), dir.path("data.rdb")});
  ASSERT_EQ(to_bin.code, 0) << to_bin.err;
  EXPECT_NE(to_bin.out.find("to binary"), std::string::npos);
  ASSERT_TRUE(fs::is_regular_file(dir.path("data.rdb")));

  fs::create_directories(dir.path("back"));
  const CliResult to_csv = run_cli({"convert", dir.path("data.rdb"), dir.path("back")});
  ASSERT_EQ(to_csv.code, 0) << to_csv.err;
  const core::RbacDataset round = io::load_dataset(dir.path("back"));
  EXPECT_EQ(round.num_roles(), 5u);
  EXPECT_EQ(round.ruam(), rolediet::testing::figure1_dataset().ruam());
}

TEST(Cli, ConvertRejectsGarbageBinary) {
  CliDir dir;
  {
    std::ofstream out(dir.path("junk.rdb"));
    out << "not a dataset";
  }
  const CliResult r = run_cli({"convert", dir.path("junk.rdb"), dir.path("out.rdb")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
  // An empty path is a usage error, checked before any file is touched.
  EXPECT_EQ(run_cli({"convert", dir.path("junk.rdb"), ""}).code, 2);
  EXPECT_EQ(run_cli({"convert", "", dir.path("out.rdb")}).code, 2);
}

// A budget past the clock's range (~9.2e9 s) is effectively unlimited: no
// type-4/5 phase may be skipped or cut short.
TEST(Cli, AuditWithHugeBudgetSkipsNoPhase) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"audit", "--budget", "1e10", dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("skipped"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("timed out"), std::string::npos) << r.out;
}

TEST(Cli, AuditWithMinhashMethod) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult r = run_cli({"audit", "--method", "approx-minhash", dir.path("data")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("method: approx-minhash"), std::string::npos);
}

TEST(Cli, VersionPrintsLibraryAndFormatVersions) {
  for (const char* flag : {"version", "--version", "-v"}) {
    const CliResult r = run_cli({flag});
    ASSERT_EQ(r.code, 0) << flag;
    EXPECT_NE(r.out.find("rolediet "), std::string::npos) << flag;
    EXPECT_NE(r.out.find("build)"), std::string::npos) << flag;
    EXPECT_NE(r.out.find("store formats: snapshot v"), std::string::npos) << flag;
    EXPECT_NE(r.out.find("wal v"), std::string::npos) << flag;
  }
}

TEST(Cli, CheckpointThenRecoverRoundTrips) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult init = run_cli({"checkpoint", dir.path("data"), dir.path("store")});
  ASSERT_EQ(init.code, 0) << init.err;
  EXPECT_NE(init.out.find("checkpoint: initialized store"), std::string::npos);
  EXPECT_NE(init.out.find("baseline snapshot snap-"), std::string::npos);

  // A second init of the same directory must refuse, not clobber.
  EXPECT_EQ(run_cli({"checkpoint", dir.path("data"), dir.path("store")}).code, 1);

  const CliResult rec = run_cli({"recover", "--json", dir.path("report.json"),
                                 dir.path("store")});
  ASSERT_EQ(rec.code, 0) << rec.err;
  EXPECT_NE(rec.out.find("recover: snapshot snap-"), std::string::npos);
  EXPECT_NE(rec.out.find("replayed 0 WAL records"), std::string::npos);
  EXPECT_NE(rec.out.find("dataset digest"), std::string::npos);
  EXPECT_NE(slurp(dir.path("report.json")).find("\"dataset_digest\""), std::string::npos);
}

TEST(Cli, ReplayWithStorePersistsAcrossRecover) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  {
    std::ofstream journal(dir.path("journal.csv"));
    journal << "add-user,U05\n"
               "assign-user,R01,U05\n"
               "revoke-user,R04,U03\n"
               "grant-permission,R03,P02\n";
  }
  const CliResult r = run_cli({"replay", "--every", "2", "--store", dir.path("store"),
                               "--checkpoint-every", "2", "--fsync", "none", dir.path("data"),
                               dir.path("journal.csv")});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("replay: checkpoint at 2 records"), std::string::npos);
  EXPECT_NE(r.out.find("replay: final checkpoint snap-"), std::string::npos);
  EXPECT_NE(r.out.find("(4 records)"), std::string::npos);

  // The store now recovers to the journal's end state with nothing to replay.
  const CliResult rec = run_cli({"recover", dir.path("store")});
  ASSERT_EQ(rec.code, 0) << rec.err;
  EXPECT_NE(rec.out.find("recover: snapshot snap-00000000000000000004"), std::string::npos);
  EXPECT_NE(rec.out.find("replayed 0 WAL records -> 4 committed records"), std::string::npos);
}

TEST(Cli, ShardedStoreRoundTripsThroughAutoDetectingRecover) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult init =
      run_cli({"checkpoint", "--shards", "2", dir.path("data"), dir.path("store")});
  ASSERT_EQ(init.code, 0) << init.err;
  EXPECT_NE(init.out.find("baseline generation 0 across 2 shards"), std::string::npos);
  EXPECT_TRUE(fs::is_regular_file(dir.path("store/MANIFEST")));

  // recover auto-detects the sharded layout from the MANIFEST.
  const CliResult rec = run_cli({"recover", dir.path("store")});
  ASSERT_EQ(rec.code, 0) << rec.err;
  EXPECT_NE(rec.out.find("recover: sharded checkpoint 0 across 2 shards"), std::string::npos);
  EXPECT_NE(rec.out.find("replayed 0 commits"), std::string::npos);
  EXPECT_NE(rec.out.find("dataset digest"), std::string::npos);

  // churn streams into a sharded store and recover replays it back.
  const CliResult churn = run_cli({"churn", "--shards", "3", "--employees", "20", "--years",
                                   "1", "--fsync", "none", dir.path("churnstore")});
  ASSERT_EQ(churn.code, 0) << churn.err;
  EXPECT_NE(churn.out.find("3 shards"), std::string::npos);
  EXPECT_NE(churn.out.find("churn: checkpoint generation"), std::string::npos);
  const CliResult rec2 = run_cli({"recover", dir.path("churnstore")});
  ASSERT_EQ(rec2.code, 0) << rec2.err;
  EXPECT_NE(rec2.out.find("recover: sharded checkpoint"), std::string::npos);
}

TEST(Cli, ShardedAuditMatchesUnshardedFindings) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  const CliResult unsharded = run_cli({"audit", dir.path("data")});
  const CliResult sharded = run_cli({"audit", "--shards", "2", dir.path("data")});
  ASSERT_EQ(unsharded.code, 0) << unsharded.err;
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  // Finding lines are identical; timings and work counters legitimately
  // differ, so drop those before comparing.
  const auto strip = [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream kept;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("finder work:") != std::string::npos ||
          line.find("total detection time") != std::string::npos) {
        continue;
      }
      const std::size_t open = line.find(" (");
      if (open != std::string::npos && line.find(" groups / ") != std::string::npos)
        line.resize(open);
      kept << line << "\n";
    }
    return kept.str();
  };
  EXPECT_EQ(strip(sharded.out), strip(unsharded.out));
  EXPECT_EQ(run_cli({"audit", "--shards", "0", dir.path("data")}).code, 2);
}

TEST(Cli, StoreCommandsRejectBadArguments) {
  CliDir dir;
  io::save_dataset(rolediet::testing::figure1_dataset(), dir.path("data"));
  EXPECT_EQ(run_cli({"checkpoint", dir.path("data")}).code, 2);  // missing store dir
  EXPECT_EQ(run_cli({"recover"}).code, 2);                       // missing store dir
  EXPECT_EQ(run_cli({"recover", dir.path("nostore")}).code, 1);  // no snapshot there
  EXPECT_EQ(run_cli({"replay", "--fsync", "sometimes", dir.path("data"), "j.csv"}).code, 2);
  // --checkpoint-every / --shards without --store make no sense.
  EXPECT_EQ(run_cli({"replay", "--checkpoint-every", "2", dir.path("data"), "j.csv"}).code, 2);
  EXPECT_EQ(run_cli({"replay", "--shards", "2", dir.path("data"), "j.csv"}).code, 2);
}

TEST(Cli, DeterministicGenerate) {
  CliDir dir;
  ASSERT_EQ(run_cli({"generate", "org", "--seed", "5", dir.path("a")}).code, 0);
  ASSERT_EQ(run_cli({"generate", "org", "--seed", "5", dir.path("b")}).code, 0);
  EXPECT_EQ(slurp(dir.path("a") + "/assignments.csv"), slurp(dir.path("b") + "/assignments.csv"));
  EXPECT_EQ(slurp(dir.path("a") + "/grants.csv"), slurp(dir.path("b") + "/grants.csv"));
}

}  // namespace
}  // namespace rolediet::cli
