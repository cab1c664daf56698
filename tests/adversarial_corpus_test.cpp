// Adversarial stress corpus: every gen/adversarial scenario through every
// detection method, backend, and thread count.
//
// The corpus is built to break specific layers: similarity walls straddle
// the Hamming/Jaccard grouping thresholds, hub permissions crowd candidate
// generation, clone chains maximize transitive-merge depth, hostile names
// attack CSV/journal/WAL framing, and standalone storms drive the empty-row
// paths. For each scenario the suite asserts (a) every method/backend/thread
// configuration agrees with the serial dense reference for that method,
// (b) replaying the dataset as a mutation delta through a fresh AuditEngine
// is byte-identical to the cold batch audit (kApproxHnsw exempt per its
// contract), and (c) the scenario's planted structure is detected exactly
// (exact methods pin group membership; serialization round-trips pin the
// hostile names).
//
// Case names end in T1/T8 so the sanitizer jobs can select thread counts
// with --gtest_filter.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/framework.hpp"
#include "gen/adversarial.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "store/engine_store.hpp"
#include "test_helpers.hpp"

namespace rolediet {
namespace {

using gen::AdversarialParams;
using gen::AdversarialScenario;
using rolediet::testing::ScopedTempDir;

AdversarialParams small_params() {
  AdversarialParams params;
  params.scale = 24;
  params.similarity_threshold = 2;
  params.jaccard_dissimilarity = 0.3;
  return params;
}

/// Findings rendering blind to wall-clock fields, work counters, the echoed
/// options, and the engine version — what must agree across configurations.
std::string findings_text(core::AuditReport report) {
  for (core::PhaseTiming* t :
       {&report.structural_time, &report.same_users_time, &report.same_permissions_time,
        &report.similar_users_time, &report.similar_permissions_time}) {
    *t = core::PhaseTiming{};
  }
  for (core::FinderWorkStats* w : {&report.same_users_work, &report.same_permissions_work,
                                   &report.similar_users_work, &report.similar_permissions_work}) {
    *w = core::FinderWorkStats{};
  }
  report.engine_version = 0;
  report.options = core::AuditOptions{};
  return report.to_text();
}

/// Role id of the unique role with this name.
core::Id role_id(const core::RbacDataset& d, const std::string& name) {
  for (std::size_t r = 0; r < d.num_roles(); ++r) {
    if (d.role_name(static_cast<core::Id>(r)) == name) return static_cast<core::Id>(r);
  }
  ADD_FAILURE() << "no role named " << name;
  return 0;
}

/// Group index of each role in a RoleGroups partition (nullopt: ungrouped).
std::optional<std::size_t> group_of(const core::RoleGroups& groups, core::Id role) {
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (std::size_t member : groups.groups[g]) {
      if (member == role) return g;
    }
  }
  return std::nullopt;
}

struct CorpusCase {
  core::Method method;
  linalg::RowBackend backend;
  std::size_t threads;
};

std::string case_name(const ::testing::TestParamInfo<CorpusCase>& info) {
  const CorpusCase& c = info.param;
  std::string name;
  switch (c.method) {
    case core::Method::kExactDbscan: name = "Exact"; break;
    case core::Method::kApproxHnsw: name = "Hnsw"; break;
    case core::Method::kApproxMinhash: name = "Minhash"; break;
    case core::Method::kRoleDiet: name = "RoleDiet"; break;
  }
  name += c.backend == linalg::RowBackend::kDense ? "Dense" : "Sparse";
  name += "T" + std::to_string(c.threads);
  return name;
}

std::vector<CorpusCase> all_cases() {
  std::vector<CorpusCase> cases;
  for (core::Method method : {core::Method::kExactDbscan, core::Method::kApproxHnsw,
                              core::Method::kApproxMinhash, core::Method::kRoleDiet}) {
    for (linalg::RowBackend backend : {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        cases.push_back({method, backend, threads});
      }
    }
  }
  return cases;
}

core::AuditOptions options_for(const CorpusCase& c) {
  core::AuditOptions options;
  options.method = c.method;
  options.detect_similar = true;
  options.similarity_threshold = small_params().similarity_threshold;
  options.threads = c.threads;
  options.backend = c.backend;
  return options;
}

class AdversarialCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(AdversarialCorpusTest, EveryScenarioAuditsConsistentlyAndReplaysThroughTheEngine) {
  const core::AuditOptions options = options_for(GetParam());
  for (AdversarialScenario scenario : gen::kAllAdversarialScenarios) {
    SCOPED_TRACE(std::string(gen::to_string(scenario)));
    const core::RbacDataset dataset = gen::make_adversarial(scenario, small_params());
    const core::AuditReport batch = core::audit(dataset, options);

    // (a) This configuration agrees with the serial dense reference of the
    // same method — thread count and row backend never change findings.
    core::AuditOptions reference_options = options;
    reference_options.threads = 1;
    reference_options.backend = linalg::RowBackend::kDense;
    EXPECT_EQ(findings_text(batch), findings_text(core::audit(dataset, reference_options)));

    // (b) Replaying the dataset as a from-empty mutation delta through the
    // engine lands on the identical findings (and the identical dataset
    // digest, proving the replay reconstructed the same ids).
    if (options.method != core::Method::kApproxHnsw) {
      core::AuditEngine engine(core::RbacDataset{}, options);
      engine.apply(gen::dataset_as_delta(dataset));
      EXPECT_EQ(findings_text(engine.reaudit()), findings_text(batch));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, AdversarialCorpusTest, ::testing::ValuesIn(all_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Scenario contracts, pinned with the exact methods.

core::AuditOptions exact_options(core::Method method = core::Method::kRoleDiet) {
  core::AuditOptions options;
  options.method = method;
  options.detect_similar = true;
  options.similarity_threshold = small_params().similarity_threshold;
  return options;
}

TEST(SimilarityWallTest, HammingBandsGroupExactlyBelowAndAtTheThreshold) {
  const AdversarialParams params = small_params();
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kSimilarityWall, params);
  for (core::Method method : {core::Method::kRoleDiet, core::Method::kExactDbscan}) {
    SCOPED_TRACE(std::string(core::to_string(method)));
    const core::AuditReport report = core::audit(dataset, exact_options(method));
    for (std::size_t i = 0; i < params.scale; ++i) {
      const char* const band = i % 3 == 0 ? "lo" : i % 3 == 1 ? "at" : "hi";
      const std::string stem = "wall-h" + std::string(band) + "-" + std::to_string(i);
      SCOPED_TRACE(stem);
      const auto a = group_of(report.similar_user_groups, role_id(dataset, stem + "-a"));
      const auto b = group_of(report.similar_user_groups, role_id(dataset, stem + "-b"));
      if (i % 3 == 2) {
        // Distance t+1: above the wall, and no transitive bridge exists.
        EXPECT_FALSE(a.has_value());
        EXPECT_FALSE(b.has_value());
      } else {
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(SimilarityWallTest, JaccardBandsGroupExactlyBelowAndAtTheWall) {
  const AdversarialParams params = small_params();
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kSimilarityWall, params);
  core::AuditOptions options = exact_options();
  options.similarity_mode = core::SimilarityMode::kJaccard;
  options.jaccard_dissimilarity = params.jaccard_dissimilarity;
  const core::AuditReport report = core::audit(dataset, options);
  for (std::size_t i = 0; i < params.scale; ++i) {
    const char* const band = i % 3 == 0 ? "lo" : i % 3 == 1 ? "at" : "hi";
    const std::string stem = "wall-j" + std::string(band) + "-" + std::to_string(i);
    SCOPED_TRACE(stem);
    const auto a = group_of(report.similar_user_groups, role_id(dataset, stem + "-a"));
    const auto b = group_of(report.similar_user_groups, role_id(dataset, stem + "-b"));
    if (i % 3 == 2) {
      EXPECT_FALSE(a.has_value());
      EXPECT_FALSE(b.has_value());
    } else {
      ASSERT_TRUE(a.has_value());
      EXPECT_EQ(a, b);
    }
  }
}

TEST(CloneChainsTest, EachChainIsOneTransitiveGroupDespiteDistantEndpoints) {
  const AdversarialParams params = small_params();
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kCloneChains, params);
  const std::size_t chains = std::max<std::size_t>(1, params.scale / 16);
  const std::size_t length = std::max<std::size_t>(3, params.scale / 4);
  for (core::Method method : {core::Method::kRoleDiet, core::Method::kExactDbscan}) {
    SCOPED_TRACE(std::string(core::to_string(method)));
    core::AuditOptions options = exact_options(method);
    options.similarity_threshold = 1;  // consecutive links differ by one user
    const core::AuditReport report = core::audit(dataset, options);
    // No two chain links are identical, so the user axis has no duplicates.
    EXPECT_TRUE(report.same_user_groups.groups.empty());
    for (std::size_t c = 0; c < chains; ++c) {
      std::optional<std::size_t> expected;
      for (std::size_t k = 0; k < length; ++k) {
        const std::string name = "chain" + std::to_string(c) + "-" + std::to_string(k);
        const auto g = group_of(report.similar_user_groups, role_id(dataset, name));
        ASSERT_TRUE(g.has_value()) << name;
        if (k == 0) {
          expected = g;
        } else {
          EXPECT_EQ(g, expected) << name;
        }
      }
    }
  }
}

TEST(HostileNamesTest, PlantedFindingsSurviveTheHostileNames) {
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kHostileNames, small_params());
  core::AuditOptions options = exact_options();
  options.similarity_threshold = 1;
  const core::AuditReport report = core::audit(dataset, options);

  const auto dup_a = group_of(report.same_user_groups, role_id(dataset, "dup\"a\",role"));
  const auto dup_b = group_of(report.same_user_groups, role_id(dataset, "dup\nb,role"));
  ASSERT_TRUE(dup_a.has_value());
  EXPECT_EQ(dup_a, dup_b);

  const auto sim_a = group_of(report.similar_user_groups, role_id(dataset, "sim🧨a"));
  const auto sim_b = group_of(report.similar_user_groups, role_id(dataset, "sim🧨b"));
  ASSERT_TRUE(sim_a.has_value());
  EXPECT_EQ(sim_a, sim_b);
}

TEST(HostileNamesTest, CsvAndJournalSerializationRoundTrip) {
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kHostileNames, small_params());

  // Dataset CSV round-trip: every hostile name survives save/load verbatim.
  ScopedTempDir root("hostile");
  io::save_dataset(dataset, root.file("csv"));
  const core::RbacDataset loaded = io::load_dataset(root.file("csv"));
  ASSERT_EQ(loaded.num_users(), dataset.num_users());
  ASSERT_EQ(loaded.num_roles(), dataset.num_roles());
  ASSERT_EQ(loaded.num_permissions(), dataset.num_permissions());
  for (std::size_t u = 0; u < dataset.num_users(); ++u)
    EXPECT_EQ(loaded.user_name(static_cast<core::Id>(u)),
              dataset.user_name(static_cast<core::Id>(u)));
  for (std::size_t r = 0; r < dataset.num_roles(); ++r)
    EXPECT_EQ(loaded.role_name(static_cast<core::Id>(r)),
              dataset.role_name(static_cast<core::Id>(r)));

  // Journal round-trip: the from-empty delta reads back mutation-for-
  // mutation, quotes, CR/LF, emoji, tag look-alikes and all.
  const core::RbacDelta delta = gen::dataset_as_delta(dataset);
  std::ostringstream out;
  io::write_journal(out, delta);
  std::istringstream in(out.str());
  const core::RbacDelta parsed = io::read_journal(in);
  EXPECT_EQ(parsed, delta);
}

TEST(HostileNamesTest, ReplaysThroughTheDurableStoreAndRecovers) {
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kHostileNames, small_params());
  const core::AuditOptions options = exact_options();
  ScopedTempDir root("hostile_store");
  store::StoreOptions store_options;
  store_options.fsync = store::FsyncPolicy::kNone;

  std::string live_findings;
  {
    store::EngineStore durable = store::EngineStore::create(root.file("store"),
                                                            core::RbacDataset{}, options,
                                                            store_options);
    durable.apply(gen::dataset_as_delta(dataset));
    (void)durable.checkpoint();  // hostile names through the snapshot writer
    live_findings = findings_text(durable.engine().reaudit());
  }
  store::EngineStore recovered =
      store::EngineStore::open(root.file("store"), options, store_options);
  EXPECT_EQ(findings_text(recovered.engine().reaudit()), live_findings);
  EXPECT_EQ(findings_text(recovered.engine().reaudit()),
            findings_text(core::audit(dataset, options)));
}

TEST(HubPermissionsTest, HubsTouchMostRolesAndFindingsStayBackendInvariant) {
  const AdversarialParams params = small_params();
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kHubPermissions, params);
  const std::size_t roles = dataset.num_roles();
  ASSERT_EQ(roles, params.scale * 2);

  // The hub property itself: each hub permission is granted to >50% of all
  // roles (the crowded-candidate stress the scenario exists to create).
  for (std::size_t h = 0; h < 4; ++h) {
    const core::Id hub = h;  // hub perms are interned first
    ASSERT_EQ(dataset.permission_name(hub), "hub-perm" + std::to_string(h));
    std::size_t granted = 0;
    for (std::size_t r = 0; r < roles; ++r) {
      for (std::uint32_t p : dataset.rpam().row(r)) {
        if (p == hub) ++granted;
      }
    }
    EXPECT_GT(granted * 2, roles) << "hub-perm" << h;
  }

  const core::AuditReport dense = core::audit(dataset, exact_options());
  core::AuditOptions sparse_options = exact_options();
  sparse_options.backend = linalg::RowBackend::kSparse;
  sparse_options.threads = 8;
  EXPECT_EQ(findings_text(dense), findings_text(core::audit(dataset, sparse_options)));
}

TEST(HubPermissionsTest, SimilarPhasesVerifyAboutOnePairPerRole) {
  // Hubs make nearly every pair of roles co-occur, so a sweep over all
  // co-occurring pairs grows with roles^2. The prefix filter skips the hubs
  // (they are the most common columns), so each phase stays near the role
  // count.
  for (std::size_t scale : {std::size_t{24}, std::size_t{96}, std::size_t{384}}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    AdversarialParams params = small_params();
    params.scale = scale;
    const core::RbacDataset dataset =
        gen::make_adversarial(AdversarialScenario::kHubPermissions, params);
    const core::AuditReport report = core::audit(dataset, exact_options());
    const std::size_t roles = dataset.num_roles();
    EXPECT_LE(report.similar_users_work.pairs_evaluated, 2 * roles);
    EXPECT_LE(report.similar_permissions_work.pairs_evaluated, 2 * roles);
  }
}

TEST(HostileNamesTest, ScalesTooSmallForThePlantedPairsAreRejected) {
  // The planted pairs use users[0..9]; a smaller scale has fewer users.
  AdversarialParams params = small_params();
  for (std::size_t scale = 0; scale < 9; ++scale) {
    params.scale = scale;
    EXPECT_THROW((void)gen::make_adversarial(AdversarialScenario::kHostileNames, params),
                 std::invalid_argument)
        << "scale " << scale;
  }
  params.scale = 9;
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kHostileNames, params);
  const core::AuditReport report = core::audit(dataset, exact_options());
  const auto sim_a = group_of(report.similar_user_groups, role_id(dataset, "sim🧨a"));
  ASSERT_TRUE(sim_a.has_value());
  EXPECT_EQ(sim_a, group_of(report.similar_user_groups, role_id(dataset, "sim🧨b")));
}

TEST(StandaloneStormTest, StructuralCountsMatchTheGeneratorContract) {
  const AdversarialParams params = small_params();
  const core::RbacDataset dataset =
      gen::make_adversarial(AdversarialScenario::kStandaloneStorm, params);
  const core::AuditReport report = core::audit(dataset, exact_options());
  const std::size_t s = params.scale;
  EXPECT_EQ(report.structural.standalone_users.size(), s);
  EXPECT_EQ(report.structural.standalone_permissions.size(), s);
  EXPECT_EQ(report.structural.standalone_roles.size(), s);
  EXPECT_EQ(report.structural.roles_without_permissions.size(), s / 2);
  EXPECT_EQ(report.structural.roles_without_users.size(), s / 2);
  // Every single* role has exactly one user and one permission; users-only /
  // perms-only roles can coincidentally have one edge too, hence >=.
  EXPECT_GE(report.structural.single_user_roles.size(), s / 4);
  EXPECT_GE(report.structural.single_permission_roles.size(), s / 4);
}

}  // namespace
}  // namespace rolediet
