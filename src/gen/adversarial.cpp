#include "gen/adversarial.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/prng.hpp"

namespace rolediet::gen {

using core::Id;
using core::RbacDataset;

std::string_view to_string(AdversarialScenario scenario) noexcept {
  switch (scenario) {
    case AdversarialScenario::kSimilarityWall: return "similarity-wall";
    case AdversarialScenario::kHubPermissions: return "hub-permissions";
    case AdversarialScenario::kCloneChains: return "clone-chains";
    case AdversarialScenario::kHostileNames: return "hostile-names";
    case AdversarialScenario::kStandaloneStorm: return "standalone-storm";
  }
  return "?";
}

AdversarialScenario parse_adversarial_scenario(std::string_view name) {
  for (AdversarialScenario scenario : kAllAdversarialScenarios) {
    if (name == to_string(scenario)) return scenario;
  }
  throw std::invalid_argument("unknown adversarial scenario '" + std::string(name) + "'");
}

namespace {

/// Grants `count` fresh private permissions to `role` — a perm-axis
/// signature far from every other role's, so wall/chain assertions on the
/// user axis are never polluted by accidental permission-side groups.
void private_perms(RbacDataset& d, Id role, const std::string& tag, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    d.grant_permission(role, d.add_permission(tag + "-p" + std::to_string(k)));
  }
}

/// Role pairs straddling the similarity thresholds. For every pair index i a
/// disjoint block of base users is shared by roles `wall-(h|j)<d>-<i>-a/b`;
/// the pair's Hamming distance cycles t-1 / t / t+1 ("lo" / "at" / "hi" in
/// the name), and a second family does the same around the Jaccard wall.
/// Contract the corpus test pins: lo and at pairs group at threshold t, hi
/// pairs do not (their base blocks are disjoint, so no transitive bridge
/// exists).
RbacDataset similarity_wall(const AdversarialParams& params) {
  RbacDataset d;
  const std::size_t t = params.similarity_threshold;
  const std::size_t pairs = params.scale;
  std::size_t next_user = 0;
  auto fresh_user = [&] { return d.add_user("wu" + std::to_string(next_user++)); };

  static const char* const kBand[3] = {"lo", "at", "hi"};
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::size_t band = i % 3;  // 0: t-1, 1: t, 2: t+1
    const std::size_t distance = (t == 0 ? 0 : t - 1) + band;
    const std::string stem = "wall-h" + std::string(kBand[band]) + "-" + std::to_string(i);
    const Id a = d.add_role(stem + "-a");
    const Id b = d.add_role(stem + "-b");
    const std::size_t base = t + 6;
    for (std::size_t k = 0; k < base; ++k) {
      const Id u = fresh_user();
      d.assign_user(a, u);
      d.assign_user(b, u);
    }
    // Split the differing users across both sides so neither is a subset.
    for (std::size_t k = 0; k < distance; ++k)
      d.assign_user(k % 2 == 0 ? a : b, fresh_user());
    private_perms(d, a, stem + "-a", 4);
    private_perms(d, b, stem + "-b", 4);
  }

  // Jaccard wall: dissimilarity e / (s + e) just below / at / just above
  // params.jaccard_dissimilarity, with s chosen so the band is one user wide.
  const double j = params.jaccard_dissimilarity;
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::size_t band = i % 3;
    const std::string stem = "wall-j" + std::string(kBand[band]) + "-" + std::to_string(i);
    const Id a = d.add_role(stem + "-a");
    const Id b = d.add_role(stem + "-b");
    // Pick extras e so e/(s+e) lands in the band around j (s fixed at 14).
    const std::size_t s = 14;
    const auto at = static_cast<std::size_t>(j * s / (1.0 - j) + 0.5);
    const std::size_t extras = band == 0 ? (at > 0 ? at - 1 : 0) : band == 1 ? at : at + 2;
    for (std::size_t k = 0; k < s; ++k) {
      const Id u = fresh_user();
      d.assign_user(a, u);
      d.assign_user(b, u);
    }
    for (std::size_t k = 0; k < extras; ++k) d.assign_user(a, fresh_user());
    private_perms(d, a, stem + "-a", 4);
    private_perms(d, b, stem + "-b", 4);
  }
  return d;
}

/// A few hub permissions granted to 70% of all roles (and two hub users
/// assigned to most roles): candidate generation sees giant co-occurrence
/// columns and crowded LSH bands while the true similar groups stay tiny.
RbacDataset hub_permissions(const AdversarialParams& params) {
  RbacDataset d;
  util::Xoshiro256 rng(params.seed);
  const std::size_t roles = params.scale * 2;
  const std::size_t hubs = 4;
  const std::size_t pool = params.scale * 4;

  std::vector<Id> hub_perms;
  for (std::size_t h = 0; h < hubs; ++h)
    hub_perms.push_back(d.add_permission("hub-perm" + std::to_string(h)));
  const Id hub_user0 = d.add_user("hub-user0");
  const Id hub_user1 = d.add_user("hub-user1");
  d.add_users(pool, "hu");
  d.add_permissions(pool, "hp");

  for (std::size_t r = 0; r < roles; ++r) {
    const Id role = d.add_role("hubrole" + std::to_string(r));
    for (Id hub : hub_perms)
      if (rng.bernoulli(0.7)) d.grant_permission(role, hub);
    if (rng.bernoulli(0.6)) d.assign_user(role, hub_user0);
    if (rng.bernoulli(0.6)) d.assign_user(role, hub_user1);
    // Long random tails keep most pairs dissimilar despite the shared hubs.
    const std::size_t perms = 4 + rng.bounded(4);
    for (std::size_t k = 0; k < perms; ++k)
      d.grant_permission(role, static_cast<Id>(hubs + rng.bounded(pool)));
    const std::size_t users = 3 + rng.bounded(4);
    for (std::size_t k = 0; k < users; ++k)
      d.assign_user(role, static_cast<Id>(2 + rng.bounded(pool)));
  }
  return d;
}

/// Chains r_0..r_L where each link drops exactly one user of its
/// predecessor: every consecutive pair is at Hamming distance 1, so at any
/// threshold >= 1 the whole chain is one transitive group even though the
/// endpoints differ in L users. Maximum-depth merge paths for union-find
/// and the engine's pair cache.
RbacDataset clone_chains(const AdversarialParams& params) {
  RbacDataset d;
  const std::size_t chains = std::max<std::size_t>(1, params.scale / 16);
  const std::size_t length = std::max<std::size_t>(3, params.scale / 4);
  std::size_t next_user = 0;
  for (std::size_t c = 0; c < chains; ++c) {
    std::vector<Id> members;
    for (std::size_t k = 0; k < length + 1; ++k)
      members.push_back(d.add_user("cu" + std::to_string(next_user++)));
    for (std::size_t k = 0; k < length; ++k) {
      const std::string stem = "chain" + std::to_string(c) + "-" + std::to_string(k);
      const Id role = d.add_role(stem);
      // Link k keeps members [k, length]: one fewer than link k-1.
      for (std::size_t m = k; m < members.size(); ++m) d.assign_user(role, members[m]);
      private_perms(d, role, stem, 3);
    }
  }
  return d;
}

/// Every quoting/framing hazard the CSV/journal/WAL layers must survive, as
/// entity names: commas, RFC-4180 quotes, CR/LF/CRLF, tabs, UTF-8 (CJK,
/// emoji, combining marks), journal-tag look-alikes, padding spaces, and one
/// empty user name. Structure plants one duplicate pair and one similar
/// pair so detection has findings to report through the hostile names.
RbacDataset hostile_names(const AdversarialParams& params) {
  // The planted pairs below use users[0..9], and there are scale + 1 users.
  if (params.scale < 9) {
    throw std::invalid_argument("hostile-names needs scale >= 9 (got " +
                                std::to_string(params.scale) + ")");
  }
  RbacDataset d;
  util::Xoshiro256 rng(params.seed);
  const std::vector<std::string> fragments{
      "comma,name",
      "quo\"te",
      "\"fully quoted\"",
      "line\nbreak",
      "carriage\rreturn",
      "crlf\r\nname",
      "tab\tname",
      "trailing space ",
      " leading space",
      "add-user",       // journal-tag look-alike
      "revoke-user",    // journal-tag look-alike
      "ロール管理者",    // CJK
      "rôle–πerm✓",     // Latin-1 supplement + dash + Greek + dingbat
      "😀🔑",            // emoji
      "áccent",   // combining acute
      ",,,",
      "\"\"",
      "=cmd|' /C calc'!A0",  // spreadsheet-injection shape
  };
  std::vector<Id> users;
  users.push_back(d.add_user(""));  // the empty name, exactly once
  for (std::size_t i = 0; i < params.scale; ++i) {
    const std::string& frag = fragments[i % fragments.size()];
    users.push_back(d.add_user(frag + "#u" + std::to_string(i)));
    d.add_permission(frag + "#p" + std::to_string(i));
  }
  for (std::size_t r = 0; r + 1 < params.scale / 2; ++r) {
    const std::string& frag = fragments[(r * 7 + 3) % fragments.size()];
    const Id role = d.add_role(frag + "#r" + std::to_string(r));
    const std::size_t members = 2 + rng.bounded(4);
    for (std::size_t k = 0; k < members; ++k)
      d.assign_user(role, users[rng.bounded(users.size())]);
    const std::size_t grants = 1 + rng.bounded(3);
    for (std::size_t k = 0; k < grants; ++k)
      d.grant_permission(role, static_cast<Id>(rng.bounded(d.num_permissions())));
  }
  // Planted findings, hostile-named: an exact same-users duplicate and a
  // distance-1 similar pair.
  const Id dup_a = d.add_role("dup\"a\",role");
  const Id dup_b = d.add_role("dup\nb,role");
  const Id sim_a = d.add_role("sim🧨a");
  const Id sim_b = d.add_role("sim🧨b");
  for (std::size_t k = 0; k < 4; ++k) {
    d.assign_user(dup_a, users[k]);
    d.assign_user(dup_b, users[k]);
    d.assign_user(sim_a, users[k + 4]);
    d.assign_user(sim_b, users[k + 4]);
  }
  d.assign_user(sim_a, users[9]);
  private_perms(d, dup_a, "dup-a", 2);
  private_perms(d, dup_b, "dup-b", 2);
  private_perms(d, sim_a, "sim-a", 2);
  private_perms(d, sim_b, "sim-b", 2);
  return d;
}

/// Standalone/one-sided storms: `scale` standalone users and permissions,
/// `scale` fully empty roles, plus users-only, permissions-only, and
/// single-assignment roles — the structural detectors and the empty-row
/// paths of every finder at adversarial density, with only a sliver of
/// healthy structure.
RbacDataset standalone_storm(const AdversarialParams& params) {
  RbacDataset d;
  util::Xoshiro256 rng(params.seed);
  const std::size_t s = params.scale;
  d.add_users(s, "lone-u");
  d.add_permissions(s, "lone-p");
  for (std::size_t r = 0; r < s; ++r) (void)d.add_role("empty-r" + std::to_string(r));

  const Id member0 = d.add_user("member0");
  const Id member1 = d.add_user("member1");
  const Id granted0 = d.add_permission("granted0");
  const Id granted1 = d.add_permission("granted1");
  for (std::size_t r = 0; r < s / 2; ++r) {
    const Id users_only = d.add_role("users-only" + std::to_string(r));
    d.assign_user(users_only, member0);
    if (rng.bernoulli(0.5)) d.assign_user(users_only, member1);
    const Id perms_only = d.add_role("perms-only" + std::to_string(r));
    d.grant_permission(perms_only, granted0);
    if (rng.bernoulli(0.5)) d.grant_permission(perms_only, granted1);
  }
  for (std::size_t r = 0; r < s / 4; ++r) {
    const Id single = d.add_role("single" + std::to_string(r));
    d.assign_user(single, r % 2 == 0 ? member0 : member1);
    d.grant_permission(single, r % 2 == 0 ? granted0 : granted1);
  }
  // A sliver of health so the dataset is not a pure pathology.
  const Id healthy = d.add_role("healthy");
  d.assign_user(healthy, member0);
  d.assign_user(healthy, member1);
  d.grant_permission(healthy, granted0);
  d.grant_permission(healthy, granted1);
  return d;
}

}  // namespace

RbacDataset make_adversarial(AdversarialScenario scenario, const AdversarialParams& params) {
  switch (scenario) {
    case AdversarialScenario::kSimilarityWall: return similarity_wall(params);
    case AdversarialScenario::kHubPermissions: return hub_permissions(params);
    case AdversarialScenario::kCloneChains: return clone_chains(params);
    case AdversarialScenario::kHostileNames: return hostile_names(params);
    case AdversarialScenario::kStandaloneStorm: return standalone_storm(params);
  }
  throw std::invalid_argument("unknown adversarial scenario");
}

core::RbacDelta dataset_as_delta(const RbacDataset& dataset) {
  core::RbacDelta delta;
  for (std::size_t u = 0; u < dataset.num_users(); ++u)
    delta.add_user(dataset.user_name(static_cast<Id>(u)));
  for (std::size_t r = 0; r < dataset.num_roles(); ++r)
    delta.add_role(dataset.role_name(static_cast<Id>(r)));
  for (std::size_t p = 0; p < dataset.num_permissions(); ++p)
    delta.add_permission(dataset.permission_name(static_cast<Id>(p)));
  for (std::size_t r = 0; r < dataset.num_roles(); ++r) {
    const auto role = static_cast<Id>(r);
    for (std::uint32_t u : dataset.ruam().row(r))
      delta.assign_user(dataset.role_name(role), dataset.user_name(u));
    for (std::uint32_t p : dataset.rpam().row(r))
      delta.grant_permission(dataset.role_name(role), dataset.permission_name(p));
  }
  return delta;
}

}  // namespace rolediet::gen
