// Differential test harness: every finder, serial and parallel, against the
// exact DBSCAN reference on ~50 seeded generator workloads.
//
// The contract under test is the one DESIGN.md commits to and the parallel
// rewrite must preserve:
//  - same-set detection is EXACT for every method (identical canonical
//    groups), including both role-diet strategies and MinHash (identical
//    sets always share every band);
//  - similar-set detection by the co-occurrence sweep matches DBSCAN at
//    eps = t for matching thresholds;
//  - every `threads` value produces byte-identical groups (the knob
//    convention in util/thread_pool.hpp) — compared here at 1, 2, 4 and 8.
//
// The thread and backend cases also run on fixed sweep shapes (end of file).
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "core/methods/cooccurrence.hpp"
#include "core/methods/exact.hpp"
#include "core/methods/minhash_lsh.hpp"
#include "gen/matrix_generator.hpp"
#include "linalg/kernels/kernels.hpp"

namespace rolediet {
namespace {

using core::GroupFinderOptions;
using core::Method;
using core::RoleGroups;
using core::methods::DbscanGroupFinder;
using core::methods::MinHashGroupFinder;
using core::methods::RoleDietGroupFinder;

/// One generator workload per seed, with the shape knobs varied by the seed
/// so the 50 workloads cover dense/sparse rows, heavy/light clustering, and
/// near-duplicate perturbations.
linalg::CsrMatrix workload(std::uint64_t seed) {
  gen::MatrixGenParams params;
  params.roles = 120 + (seed % 5) * 40;           // 120 .. 280
  params.cols = 80 + (seed % 3) * 40;             // 80 .. 160
  params.clustered_fraction = 0.15 + 0.05 * static_cast<double>(seed % 4);
  params.max_cluster_size = 4 + seed % 7;
  params.min_row_norm = 1 + seed % 2;
  params.max_row_norm = 8 + seed % 9;
  params.perturb_bits = seed % 3;                  // 0 = duplicates only
  params.ensure_unique_rows = false;               // allow cross-cluster collisions
  params.seed = 0xD1FFu + seed;
  return gen::generate_matrix(params).matrix;
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, SameSetGroupsIdenticalAcrossAllFinders) {
  const linalg::CsrMatrix m = workload(GetParam());
  const RoleGroups reference = DbscanGroupFinder().find_same(m);

  // Role-diet, both strategies, serial and at 4 threads.
  for (auto strategy : {RoleDietGroupFinder::SameStrategy::kRowHash,
                        RoleDietGroupFinder::SameStrategy::kCooccurrenceMatrix}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const RoleDietGroupFinder finder({.same_strategy = strategy, .threads = threads});
      EXPECT_EQ(finder.find_same(m), reference)
          << "strategy " << static_cast<int>(strategy) << ", threads " << threads;
    }
  }
  // DBSCAN's own parallel region queries.
  EXPECT_EQ(DbscanGroupFinder({.threads = 4}).find_same(m), reference);
  // MinHash: recall 1 on identical sets, candidates verified exactly.
  EXPECT_EQ(MinHashGroupFinder().find_same(m), reference);
  // The factory wires the knob the same way.
  GroupFinderOptions options;
  options.threads = 4;
  for (Method method : {Method::kRoleDiet, Method::kExactDbscan, Method::kApproxMinhash}) {
    EXPECT_EQ(core::make_group_finder(method, options)->find_same(m), reference)
        << "factory method " << static_cast<int>(method);
  }
}

void expect_similar_sweep_matches_dbscan(const linalg::CsrMatrix& m) {
  for (std::size_t t : {std::size_t{1}, std::size_t{2}}) {
    const RoleGroups reference = DbscanGroupFinder().find_similar(m, t);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      EXPECT_EQ(RoleDietGroupFinder({.threads = threads}).find_similar(m, t), reference)
          << "t=" << t << ", threads=" << threads;
      EXPECT_EQ(DbscanGroupFinder({.threads = threads}).find_similar(m, t), reference)
          << "dbscan t=" << t << ", threads=" << threads;
    }
  }
}

TEST_P(Differential, SimilarSetSweepMatchesDbscanAtMatchingThresholds) {
  expect_similar_sweep_matches_dbscan(workload(GetParam() ^ 0x51A17u));
}

// ------------------------------------------------- backend equivalence ------
//
// The RowStore contract (linalg/row_store.hpp): the dense and sparse kernel
// backends compute identical integers, so groups, audit reports, and
// FinderWorkStats are byte-identical whichever backend runs.

void expect_work_eq(const core::FinderWorkStats& a, const core::FinderWorkStats& b,
                    const std::string& where) {
  EXPECT_EQ(a.rows_processed, b.rows_processed) << where;
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated) << where;
  EXPECT_EQ(a.pairs_matched, b.pairs_matched) << where;
  EXPECT_EQ(a.merges, b.merges) << where;
  EXPECT_EQ(a.merge_conflicts, b.merge_conflicts) << where;
}

/// Renders a report with every timing zeroed and the options echo reset, so
/// two runs that only differ in wall clock or in the (intentionally varied)
/// threads/backend knobs compare byte-identical.
std::string text_without_timings(core::AuditReport report) {
  for (core::PhaseTiming* t :
       {&report.structural_time, &report.same_users_time, &report.same_permissions_time,
        &report.similar_users_time, &report.similar_permissions_time}) {
    t->seconds = 0.0;
  }
  report.options = core::AuditOptions{};
  return report.to_text();
}

/// Wraps a pair of assignment matrices as a dataset so audit() can run on a
/// generator workload (roles row-aligned across both matrices).
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

void expect_backends_agree(const linalg::CsrMatrix& m) {
  for (Method method : {Method::kExactDbscan, Method::kApproxHnsw, Method::kApproxMinhash}) {
    GroupFinderOptions dense_opts;
    dense_opts.backend = linalg::RowBackend::kDense;
    GroupFinderOptions sparse_opts;
    sparse_opts.backend = linalg::RowBackend::kSparse;
    const auto dense = core::make_group_finder(method, dense_opts);
    const auto sparse = core::make_group_finder(method, sparse_opts);
    const std::string where = "method " + std::string(core::to_string(method));

    EXPECT_EQ(dense->find_same(m), sparse->find_same(m)) << where;
    expect_work_eq(dense->last_work(), sparse->last_work(), where + " find_same");

    EXPECT_EQ(dense->find_similar(m, 1), sparse->find_similar(m, 1)) << where;
    expect_work_eq(dense->last_work(), sparse->last_work(), where + " find_similar");

    EXPECT_EQ(dense->find_similar_jaccard(m, 200'000), sparse->find_similar_jaccard(m, 200'000))
        << where;
    expect_work_eq(dense->last_work(), sparse->last_work(), where + " jaccard");
  }
}

TEST_P(Differential, BackendsProduceIdenticalGroupsAndCounters) {
  expect_backends_agree(workload(GetParam() ^ 0xBACEDu));
}

TEST_P(Differential, AuditReportsIdenticalAcrossBackends) {
  // seed + 5 keeps (seed % 5), so both matrices have the same role count.
  const std::uint64_t seed = GetParam();
  const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
  for (Method method : {Method::kExactDbscan, Method::kApproxHnsw, Method::kApproxMinhash,
                        Method::kRoleDiet}) {
    core::AuditOptions dense_opts;
    dense_opts.method = method;
    dense_opts.backend = linalg::RowBackend::kDense;
    core::AuditOptions sparse_opts;
    sparse_opts.method = method;
    sparse_opts.backend = linalg::RowBackend::kSparse;
    const core::AuditReport dense = core::audit(dataset, dense_opts);
    const core::AuditReport sparse = core::audit(dataset, sparse_opts);
    const std::string where = "method " + std::string(core::to_string(method));

    EXPECT_EQ(text_without_timings(dense), text_without_timings(sparse)) << where;
    expect_work_eq(dense.same_users_work, sparse.same_users_work, where + " same-users");
    expect_work_eq(dense.same_permissions_work, sparse.same_permissions_work,
                   where + " same-perms");
    expect_work_eq(dense.similar_users_work, sparse.similar_users_work, where + " similar-users");
    expect_work_eq(dense.similar_permissions_work, sparse.similar_permissions_work,
                   where + " similar-perms");
  }
}

TEST_P(Differential, AuditReportsIdenticalAcrossThreadCountsAndBackends) {
  // The pipeline determinism contract (methods/method_common.hpp): the
  // verified-pair set and every work counter are sums over domain items,
  // independent of how the pipeline chunks the domain across threads — so
  // with no time budget, groups, reports, and FinderWorkStats are
  // byte-identical for every threads value and either kernel backend.
  const std::uint64_t seed = GetParam() ^ 0x7EADu;
  // seed + 5 keeps (seed % 5), so both matrices have the same role count.
  const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
  for (Method method : {Method::kExactDbscan, Method::kApproxHnsw, Method::kApproxMinhash,
                        Method::kRoleDiet}) {
    core::AuditOptions ref_opts;
    ref_opts.method = method;
    ref_opts.threads = 1;
    ref_opts.backend = linalg::RowBackend::kDense;
    const core::AuditReport reference = core::audit(dataset, ref_opts);
    const std::string ref_text = text_without_timings(reference);

    for (linalg::RowBackend backend : {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        core::AuditOptions opts;
        opts.method = method;
        opts.threads = threads;
        opts.backend = backend;
        const core::AuditReport report = core::audit(dataset, opts);
        const std::string where = "method " + std::string(core::to_string(method)) +
                                  ", backend " + std::to_string(static_cast<int>(backend)) +
                                  ", threads " + std::to_string(threads);

        EXPECT_EQ(text_without_timings(report), ref_text) << where;
        expect_work_eq(report.same_users_work, reference.same_users_work, where + " same-users");
        expect_work_eq(report.same_permissions_work, reference.same_permissions_work,
                       where + " same-perms");
        expect_work_eq(report.similar_users_work, reference.similar_users_work,
                       where + " similar-users");
        expect_work_eq(report.similar_permissions_work, reference.similar_permissions_work,
                       where + " similar-perms");
      }
    }
  }
}

TEST_P(Differential, JaccardAuditReportsIdenticalAcrossThreadCountsAndBackends) {
  // Same determinism contract as above, under the relative (Jaccard) type-5
  // mode: the scaled-integer threshold comparison (cluster/metric.hpp) is
  // exact, so every method stays byte-identical across the threads knob and
  // both kernel backends in this mode too.
  const std::uint64_t seed = GetParam() ^ 0x1ACCAu;
  // seed + 5 keeps (seed % 5), so both matrices have the same role count.
  const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
  for (Method method : {Method::kExactDbscan, Method::kApproxHnsw, Method::kApproxMinhash,
                        Method::kRoleDiet}) {
    core::AuditOptions ref_opts;
    ref_opts.method = method;
    ref_opts.similarity_mode = core::SimilarityMode::kJaccard;
    ref_opts.jaccard_dissimilarity = 0.2;
    ref_opts.threads = 1;
    ref_opts.backend = linalg::RowBackend::kDense;
    const core::AuditReport reference = core::audit(dataset, ref_opts);
    const std::string ref_text = text_without_timings(reference);

    for (linalg::RowBackend backend : {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        core::AuditOptions opts = ref_opts;
        opts.threads = threads;
        opts.backend = backend;
        const core::AuditReport report = core::audit(dataset, opts);
        const std::string where = "jaccard method " + std::string(core::to_string(method)) +
                                  ", backend " + std::to_string(static_cast<int>(backend)) +
                                  ", threads " + std::to_string(threads);

        EXPECT_EQ(text_without_timings(report), ref_text) << where;
        expect_work_eq(report.similar_users_work, reference.similar_users_work,
                       where + " similar-users");
        expect_work_eq(report.similar_permissions_work, reference.similar_permissions_work,
                       where + " similar-perms");
      }
    }
  }
}

TEST_P(Differential, ReportsIdenticalAcrossKernelDispatchTargets) {
  // The kernel-layer contract (linalg/kernels/kernels.hpp): every dispatch
  // target — scalar, and whichever of avx2/avx512/neon this host supports —
  // computes identical integers for all five kernel ops, so groups, reports,
  // and FinderWorkStats are byte-identical whichever target the batched
  // verify stage runs on, on either backend, at any thread count. The
  // reference is the forced-scalar run: the target a host with no wide SIMD
  // (or ROLEDIET_KERNEL=scalar, the CI leg) always resolves to.
  namespace kernels = linalg::kernels;
  std::vector<kernels::KernelIsa> targets{kernels::KernelIsa::kScalar};
  for (kernels::KernelIsa isa : {kernels::KernelIsa::kAvx2, kernels::KernelIsa::kAvx512,
                                 kernels::KernelIsa::kNeon}) {
    if (kernels::isa_supported(isa)) targets.push_back(isa);
  }

  const std::uint64_t seed = GetParam() ^ 0x51D0u;
  // seed + 5 keeps (seed % 5), so both matrices have the same role count.
  const core::RbacDataset dataset = dataset_from(workload(seed), workload(seed + 5));
  for (Method method : {Method::kExactDbscan, Method::kApproxHnsw, Method::kApproxMinhash,
                        Method::kRoleDiet}) {
    kernels::set_active_isa(kernels::KernelIsa::kScalar);
    core::AuditOptions ref_opts;
    ref_opts.method = method;
    ref_opts.threads = 1;
    ref_opts.backend = linalg::RowBackend::kDense;
    const core::AuditReport reference = core::audit(dataset, ref_opts);
    const std::string ref_text = text_without_timings(reference);

    for (kernels::KernelIsa isa : targets) {
      kernels::set_active_isa(isa);
      for (linalg::RowBackend backend :
           {linalg::RowBackend::kDense, linalg::RowBackend::kSparse}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          core::AuditOptions opts;
          opts.method = method;
          opts.threads = threads;
          opts.backend = backend;
          const core::AuditReport report = core::audit(dataset, opts);
          const std::string where = "method " + std::string(core::to_string(method)) +
                                    ", kernel " + std::string(kernels::to_string(isa)) +
                                    ", backend " + std::to_string(static_cast<int>(backend)) +
                                    ", threads " + std::to_string(threads);

          EXPECT_EQ(text_without_timings(report), ref_text) << where;
          expect_work_eq(report.same_users_work, reference.same_users_work,
                         where + " same-users");
          expect_work_eq(report.same_permissions_work, reference.same_permissions_work,
                         where + " same-perms");
          expect_work_eq(report.similar_users_work, reference.similar_users_work,
                         where + " similar-users");
          expect_work_eq(report.similar_permissions_work, reference.similar_permissions_work,
                         where + " similar-perms");
        }
      }
    }
    kernels::set_active_isa(kernels::KernelIsa::kAuto);  // restore detection
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range<std::uint64_t>(0, 25));

// ------------------------------------------------------- sweep shapes -------
// Fixed inputs beyond the seeded family: the thread case on the Fig. 3 point,
// the backend case either side of the 1% density threshold.

struct SweepShape {
  const char* name;
  gen::MatrixGenParams params;
};

// Printed into the ctest name, e.g. ".../fig3_2000x1000".
void PrintTo(const SweepShape& shape, std::ostream* os) { *os << shape.name; }

class ThreadSweepShape : public ::testing::TestWithParam<SweepShape> {};

TEST_P(ThreadSweepShape, SimilarSetSweepMatchesDbscanAtMatchingThresholds) {
  expect_similar_sweep_matches_dbscan(gen::generate_matrix(GetParam().params).matrix);
}

// The generator's defaults are the paper's Fig. 3 settings.
INSTANTIATE_TEST_SUITE_P(
    Fig3, ThreadSweepShape,
    ::testing::Values(SweepShape{"fig3_2000x1000", {.roles = 2000, .cols = 1000, .seed = 5000}}));

class DensitySweepShape : public ::testing::TestWithParam<SweepShape> {};

TEST_P(DensitySweepShape, BackendsProduceIdenticalGroupsAndCounters) {
  expect_backends_agree(gen::generate_matrix(GetParam().params).matrix);
}

// 3 and 30 entries per 600-column row: 0.5% density, where kAuto picks the
// sparse backend (no seeded workload is that sparse), and 5%.
INSTANTIATE_TEST_SUITE_P(
    Density, DensitySweepShape,
    ::testing::Values(SweepShape{"density_0_5pct",
                                 {.roles = 800, .cols = 600, .min_row_norm = 3, .max_row_norm = 3,
                                  .perturb_bits = 1, .seed = 4242 + 5000}},
                      SweepShape{"density_5pct",
                                 {.roles = 800, .cols = 600, .min_row_norm = 30, .max_row_norm = 30,
                                  .perturb_bits = 1, .seed = 4242 + 50000}}));

}  // namespace
}  // namespace rolediet
