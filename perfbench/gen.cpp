// perfbench_gen: writes the inputs of one benchmark workload for one seed.
//
//   perfbench_gen --workload NAME --seed N --out DIR [--scale full|tiny]
//
// Runs in its own process before the measured one, so generation memory never
// counts towards the runner's peak RSS and the runner receives only files:
//
//   org-audit         DIR/dataset/*.csv (OrgProfile::paper_scale, seeded) and
//                     DIR/truth.txt (the profile's planted ground truth)
//   churn-serve(-s4)  DIR/dataset/*.csv (day 0 of a churn lifecycle) and
//                     DIR/batches/day-NNNN.csv (days 1 .. first onboarding)
//   churn-mine        DIR/dataset/*.csv (final state of a one-year lifecycle,
//                     relabelled by the seed)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "gen/churn.hpp"
#include "gen/org_simulator.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

namespace gen = rolediet::gen;
namespace io = rolediet::io;

void write_org(const fs::path& out, std::uint64_t seed, const Scale& scale) {
  gen::OrgProfile profile =
      scale.tiny ? gen::OrgProfile::small(seed) : gen::OrgProfile::paper_scale();
  profile.seed = seed;
  const gen::OrgDataset org = gen::generate_org(profile);
  io::save_dataset(org.dataset, dataset_dir(out));
  const gen::PlantedTruth& t = org.truth;
  std::ofstream truth(truth_file(out));
  truth << "standalone_users " << t.standalone_users << '\n'
        << "standalone_permissions " << t.standalone_permissions << '\n'
        << "standalone_roles " << t.standalone_roles << '\n'
        << "roles_without_users " << t.roles_without_users << '\n'
        << "roles_without_permissions " << t.roles_without_permissions << '\n'
        << "single_user_roles " << t.single_user_roles << '\n'
        << "single_permission_roles " << t.single_permission_roles << '\n'
        << "roles_in_same_user_groups " << t.roles_in_same_user_groups << '\n'
        << "roles_in_same_permission_groups " << t.roles_in_same_permission_groups << '\n'
        << "roles_in_similar_user_groups " << t.roles_in_similar_user_groups << '\n'
        << "roles_in_similar_permission_groups " << t.roles_in_similar_permission_groups << '\n';
  if (!truth) throw std::runtime_error("cannot write " + truth_file(out).string());
}

/// Day 0 as the baseline dataset, then every day through the first tenant
/// onboarding as one journal batch each.
void write_serve(const fs::path& out, std::uint64_t seed, const Scale& scale) {
  gen::ChurnConfig config;
  config.seed = seed;
  config.initial_employees = scale.serve_employees();
  config.years = 1;
  gen::ChurnSimulator sim(config);
  core::AuditEngine day0{core::RbacDataset{}};
  day0.apply(sim.next_day());
  io::save_dataset(day0.snapshot(), dataset_dir(out));
  fs::create_directories(batches_dir(out));
  bool onboarded = false;
  while (!onboarded && !sim.done()) {
    const std::size_t day = sim.day();
    onboarded = sim.phase_of(day) == gen::ChurnPhase::kOnboardingWave;
    io::save_journal(batches_dir(out) / batch_file_name(day), sim.next_day());
  }
}

/// `in` with its users, roles, permissions and edges in a seed-chosen order:
/// the same access structure under different ids and file order.
core::RbacDataset relabel(const core::RbacDataset& in, std::uint64_t seed) {
  rolediet::util::Xoshiro256 rng(seed);
  const auto order = [&rng](std::size_t n) {
    std::vector<core::Id> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<core::Id>(i);
    std::shuffle(ids.begin(), ids.end(), rng);
    return ids;
  };
  const std::vector<core::Id> users = order(in.num_users());
  const std::vector<core::Id> roles = order(in.num_roles());
  const std::vector<core::Id> perms = order(in.num_permissions());
  core::RbacDataset out;
  std::vector<core::Id> user_id(users.size()), role_id(roles.size()), perm_id(perms.size());
  for (const core::Id u : users) user_id[u] = out.add_user(in.user_name(u));
  for (const core::Id r : roles) role_id[r] = out.add_role(in.role_name(r));
  for (const core::Id p : perms) perm_id[p] = out.add_permission(in.permission_name(p));
  for (const core::Id r : roles) {
    for (const std::uint32_t u : in.ruam().row(r)) out.assign_user(role_id[r], user_id[u]);
    for (const std::uint32_t p : in.rpam().row(r)) out.grant_permission(role_id[r], perm_id[p]);
  }
  return out;
}

/// One fixed lifecycle, relabelled by the seed. Mining cost grows faster than
/// the number of closed sets, which differs by about 15% between lifecycles,
/// so distinct lifecycles per seed would make mine time a property of the
/// seed rather than of the code.
void write_mine(const fs::path& out, std::uint64_t seed, const Scale& scale) {
  gen::ChurnConfig config;
  config.initial_employees = scale.mine_employees();
  config.years = 1;
  std::stringstream journal;
  (void)gen::write_churn_journal(journal, config);
  core::AuditEngine engine{core::RbacDataset{}};
  engine.apply(io::read_journal(journal));
  io::save_dataset(relabel(engine.snapshot(), seed), dataset_dir(out));
}

int run(int argc, char** argv) {
  std::string workload;
  fs::path out;
  std::uint64_t seed = 0;
  Scale scale;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") workload = value;
    else if (arg == "--out") out = value;
    else if (arg == "--seed") seed = std::stoull(value);
    else if (arg == "--scale") scale.tiny = value == "tiny";
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (workload.empty() || out.empty() || argc % 2 == 0)
    throw std::invalid_argument("usage: perfbench_gen --workload NAME --seed N --out DIR");
  fs::remove_all(out);
  fs::create_directories(out);
  if (workload == "org-audit") write_org(out, seed, scale);
  else if (workload == "churn-serve" || workload == "churn-serve-s4") write_serve(out, seed, scale);
  else if (workload == "churn-mine") write_mine(out, seed, scale);
  else throw std::invalid_argument("unknown workload " + workload);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 2;
  }
}
