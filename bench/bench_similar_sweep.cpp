// Type-5 (similar roles) sweep: the Fig. 3 protocol applied to the paper's
// fifth inefficiency — roles sharing all but `t` users — with t = 1, the
// setting used for the real-data numbers in §IV-B.
//
// Workload: clusters planted with one perturbed bit per member, so they are
// recoverable only by similarity search, not by exact duplicate detection.
// DBSCAN runs with eps = 1; HNSW range-searches with radius 1; the role-diet
// method uses the sparse co-occurrence identity hamming = |Ri|+|Rj|-2g.
#include "bench_common.hpp"

using namespace rolediet;
using namespace rolediet::bench;

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::parse(argc, argv);
  constexpr std::size_t kThreshold = 1;

  std::printf("=== Similar-roles sweep: duration vs role count "
              "(users = 1000, threshold t = 1) ===\n");
  std::printf("runs per cell: %zu\n\n", config.runs);
  print_header("roles");

  std::vector<std::size_t> role_counts;
  for (std::size_t r = 1000; r <= 10'000; r += 1000) role_counts.push_back(r);
  if (config.quick) role_counts = {1000, 4000, 10'000};

  for (std::size_t roles : role_counts) {
    gen::MatrixGenParams params;
    params.roles = roles;
    params.cols = 1000;
    params.clustered_fraction = 0.2;
    params.max_cluster_size = 10;
    params.perturb_bits = kThreshold;
    params.seed = 5000 + roles;
    const gen::GeneratedMatrix workload = gen::generate_matrix(params);

    std::printf("%-10zu", roles);
    for (core::Method method : all_methods()) {
      const auto finder = core::make_group_finder(method, config.finder_options());
      core::RoleGroups sink;
      const Cell cell = time_cell(
          config.runs, [&] { sink = finder->find_similar(workload.matrix, kThreshold); });
      std::printf(" | %s", cell.to_string().c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: same ordering as Fig. 3; similarity search costs the\n"
              "role-diet method a prefix-filtered candidate sweep instead of a hash pass,\n"
              "but it remains far below both baselines.\n");
  return 0;
}
