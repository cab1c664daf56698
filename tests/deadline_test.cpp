// ExecutionContext semantics and mid-phase cancellation.
//
// The contract under test (util/execution_context.hpp, group_finder.hpp):
//  - expired() trips on deadline or request_cancel() and latches
//    interrupted();
//  - a cancelled find_* run returns groups whose co-memberships are a subset
//    of the unbudgeted *exact* run's (only exactly-verified pairs are ever
//    united, so even an approximate finder's partial output never contains a
//    false pair), for every method and thread count — asserted here via
//    pairwise_precision(exact, partial) == 1, including with a concurrent
//    canceller thread (the TSan-relevant path);
//  - audit() under an exhausted budget still returns a well-formed report
//    with the affected phases marked timed_out;
//  - audit() validates AuditOptions up front.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/periodic.hpp"
#include "gen/matrix_generator.hpp"
#include "io/json_writer.hpp"
#include "util/execution_context.hpp"

namespace rolediet {
namespace {

using core::Method;
using core::RoleGroups;
using util::ExecutionContext;

linalg::CsrMatrix workload(std::uint64_t seed, std::size_t roles = 400) {
  gen::MatrixGenParams params;
  params.roles = roles;
  params.cols = 200;
  params.clustered_fraction = 0.3;
  params.perturb_bits = 1;
  params.ensure_unique_rows = false;
  params.seed = 0xDEAD1234u + seed;
  return gen::generate_matrix(params).matrix;
}

core::RbacDataset dataset_from(const linalg::CsrMatrix& ruam, const linalg::CsrMatrix& rpam) {
  core::RbacDataset d;
  for (std::size_t u = 0; u < ruam.cols(); ++u) d.add_user("U" + std::to_string(u));
  for (std::size_t p = 0; p < rpam.cols(); ++p) d.add_permission("P" + std::to_string(p));
  for (std::size_t r = 0; r < ruam.rows(); ++r) d.add_role("R" + std::to_string(r));
  for (std::size_t r = 0; r < ruam.rows(); ++r)
    for (std::uint32_t u : ruam.row(r)) d.assign_user(static_cast<core::Id>(r), u);
  for (std::size_t r = 0; r < rpam.rows(); ++r)
    for (std::uint32_t p : rpam.row(r)) d.grant_permission(static_cast<core::Id>(r), p);
  return d;
}

const std::vector<Method> kAllMethods = {Method::kRoleDiet, Method::kExactDbscan,
                                         Method::kApproxHnsw, Method::kApproxMinhash};

// ---------------------------------------------- ExecutionContext basics ----

TEST(ExecutionContext, UnlimitedNeverExpires) {
  const ExecutionContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.interrupted());
  EXPECT_EQ(ctx.remaining_seconds(), std::numeric_limits<double>::infinity());
}

TEST(ExecutionContext, NonPositiveBudgetMeansUnlimited) {
  EXPECT_FALSE(ExecutionContext(0.0).has_deadline());
  EXPECT_FALSE(ExecutionContext(-1.0).has_deadline());
  EXPECT_TRUE(ExecutionContext(10.0).has_deadline());
}

// Budgets past the clock's nanosecond range (~9.2e9 s) saturate, never expire.
TEST(ExecutionContext, HugeBudgetSaturatesInsteadOfExpiring) {
  for (double budget : {9e9, 1e10, 1e300, std::numeric_limits<double>::max()}) {
    const ExecutionContext ctx(budget);
    EXPECT_TRUE(ctx.has_deadline()) << budget;
    EXPECT_FALSE(ctx.expired()) << budget;
    EXPECT_GT(ctx.remaining_seconds(), 1e9) << budget;
  }
}

TEST(ExecutionContext, DeadlineTripsAndLatchesInterrupted) {
  const ExecutionContext ctx(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(ctx.interrupted()) << "interrupted() must latch via expired(), not by itself";
  EXPECT_TRUE(ctx.expired());
  EXPECT_TRUE(ctx.interrupted());
  EXPECT_LT(ctx.remaining_seconds(), 0.0);
}

TEST(ExecutionContext, RequestCancelTripsWithoutDeadline) {
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.expired());
  ctx.request_cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.expired());
  EXPECT_TRUE(ctx.interrupted());
}

// ------------------------------------------- partial-result subset rule ----

/// partial's co-memberships are a subset of the reference's: every pair
/// co-grouped in partial is co-grouped in the reference (pair-level precision
/// of partial wrt the reference). The reference is an unbudgeted *exact* run:
/// an approximate finder's cancelled run may stop with a differently-built
/// index than its own full run, but every pair it unites is exactly verified,
/// so it can never exceed the exact grouping.
void expect_subset(const RoleGroups& exact, const RoleGroups& partial, const std::string& where) {
  EXPECT_DOUBLE_EQ(core::pairwise_precision(exact, partial), 1.0) << where;
}

TEST(DeadlineCancellation, CancelledBeforeStartYieldsEmptyGroups) {
  const linalg::CsrMatrix m = workload(1);
  ExecutionContext ctx;
  ctx.request_cancel();
  for (Method method : kAllMethods) {
    const auto finder = core::make_group_finder(method);
    const std::string where = std::string(core::to_string(method));
    EXPECT_EQ(finder->find_same(m, ctx).group_count(), 0u) << where;
    EXPECT_EQ(finder->find_similar(m, 1, ctx).group_count(), 0u) << where;
  }
}

TEST(DeadlineCancellation, MidRunCancelYieldsSubsetOfFullGroups) {
  // The canceller races the finder; wherever the checkpoint lands, the
  // returned groups must be a co-membership subset of the full run's. Run
  // at 2 threads so the cancel is observed concurrently by pool workers —
  // this is the interleaving TSan vets.
  const linalg::CsrMatrix m = workload(2, /*roles=*/800);
  const auto exact = core::make_group_finder(Method::kExactDbscan);
  const RoleGroups exact_same = exact->find_same(m);
  const RoleGroups exact_similar = exact->find_similar(m, 1);

  core::GroupFinderOptions options;
  options.threads = 2;
  for (Method method : kAllMethods) {
    const auto finder = core::make_group_finder(method, options);
    for (int delay_us : {0, 50, 200, 1000}) {
      ExecutionContext ctx;
      std::thread canceller([&ctx, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        ctx.request_cancel();
      });
      const RoleGroups partial = finder->find_same(m, ctx);
      canceller.join();
      expect_subset(exact_same, partial,
                    std::string(core::to_string(method)) + " delay " + std::to_string(delay_us));

      ExecutionContext ctx2;
      std::thread canceller2([&ctx2, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        ctx2.request_cancel();
      });
      const RoleGroups partial_similar = finder->find_similar(m, 1, ctx2);
      canceller2.join();
      expect_subset(exact_similar, partial_similar,
                    std::string(core::to_string(method)) + " similar delay " +
                        std::to_string(delay_us));
    }
  }
}

TEST(DeadlineCancellation, TightDeadlineYieldsSubsetOfFullGroups) {
  // Same property driven by the deadline instead of an external cancel.
  const linalg::CsrMatrix m = workload(3, /*roles=*/600);
  const RoleGroups exact_similar = core::make_group_finder(Method::kExactDbscan)->find_similar(m, 2);
  for (Method method : kAllMethods) {
    const auto finder = core::make_group_finder(method);
    for (double budget_s : {1e-9, 1e-4, 1e-3}) {
      const ExecutionContext ctx(budget_s);
      const RoleGroups partial = finder->find_similar(m, 2, ctx);
      expect_subset(exact_similar, partial, std::string(core::to_string(method)) + " budget " +
                                                std::to_string(budget_s));
    }
  }
}

// ------------------------------------------------------- audit() budget ----

TEST(AuditDeadline, ExhaustedBudgetProducesWellFormedReport) {
  const core::RbacDataset dataset = dataset_from(workload(4), workload(5));
  for (Method method : kAllMethods) {
    core::AuditOptions options;
    options.method = method;
    options.time_budget_s = 1e-9;  // expires before the first phase starts
    const core::AuditReport report = core::audit(dataset, options);
    const std::string where = std::string(core::to_string(method));

    EXPECT_TRUE(report.same_users_time.timed_out) << where;
    EXPECT_TRUE(report.same_permissions_time.timed_out) << where;
    EXPECT_TRUE(report.similar_users_time.timed_out) << where;
    EXPECT_TRUE(report.similar_permissions_time.timed_out) << where;
    // Structural findings are always present; the text and JSON renderers
    // must handle the truncated report.
    EXPECT_NE(report.to_text().find("time budget"), std::string::npos) << where;
    EXPECT_NE(io::report_to_json(report, dataset).find("\"timed_out\":true"), std::string::npos)
        << where;
  }
}

TEST(AuditDeadline, PartialAuditGroupsAreSubsetsOfUnbudgetedExactAudit) {
  const core::RbacDataset dataset = dataset_from(workload(6, 600), workload(7, 600));
  core::AuditOptions exact_options;
  exact_options.method = Method::kExactDbscan;
  const core::AuditReport exact = core::audit(dataset, exact_options);

  for (Method method : kAllMethods) {
    core::AuditOptions options;
    options.method = method;
    // A budget in the single-milliseconds range lands mid-phase on most
    // machines; wherever it lands, each phase's groups must be a subset of
    // the exact unbudgeted audit's (only verified pairs are ever united).
    options.time_budget_s = 0.004;
    const core::AuditReport partial = core::audit(dataset, options);
    const std::string where = std::string(core::to_string(method));
    expect_subset(exact.same_user_groups, partial.same_user_groups, where + " same-users");
    expect_subset(exact.same_permission_groups, partial.same_permission_groups,
                  where + " same-perms");
    expect_subset(exact.similar_user_groups, partial.similar_user_groups,
                  where + " similar-users");
    expect_subset(exact.similar_permission_groups, partial.similar_permission_groups,
                  where + " similar-perms");
    EXPECT_LE(partial.total_seconds(), exact.total_seconds() + 5.0)
        << where << ": budget-stopped audit must terminate promptly";
  }
}

// -------------------------------------------------- options validation ----

TEST(AuditValidation, RejectsOutOfRangeOptions) {
  const core::RbacDataset dataset = dataset_from(workload(8, 20), workload(9, 20));
  core::AuditOptions options;

  options.jaccard_dissimilarity = -0.1;
  EXPECT_THROW((void)core::audit(dataset, options), std::invalid_argument);
  options.jaccard_dissimilarity = 1.5;
  EXPECT_THROW((void)core::audit(dataset, options), std::invalid_argument);
  options.jaccard_dissimilarity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)core::audit(dataset, options), std::invalid_argument);

  options = {};
  options.time_budget_s = -1.0;
  EXPECT_THROW((void)core::audit(dataset, options), std::invalid_argument);
  options.time_budget_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)core::audit(dataset, options), std::invalid_argument);

  options = {};  // defaults must pass
  EXPECT_NO_THROW((void)core::audit(dataset, options));
}

}  // namespace
}  // namespace rolediet
