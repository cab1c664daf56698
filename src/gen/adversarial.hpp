// Adversarial dataset generators — the standing stress corpus.
//
// Role-mining literature (Tripunitara 2024; Blundo & Cimato) shows detection
// quality and performance degrade first on *pathological* permission
// structures, not on average orgs. Each generator here builds one hostile
// shape, deterministically from a seed, as a plain RbacDataset so the same
// corpus drives batch audits, engine replays (via dataset_as_delta), journal
// round-trips, and the durable store. tests/adversarial_corpus_test.cpp
// replays a compact instance of every scenario through all four methods ×
// dense/sparse × 1/8 threads, and CI reruns that suite under ASan/UBSan on
// every push.
//
//   similarity-wall    role pairs straddling the Hamming threshold t and the
//                      Jaccard wall: distances t-1 / t / t+1 on disjoint
//                      base sets, so candidate generation sees a dense wall
//                      of near-misses and verification decides every pair
//   hub-permissions    a few permissions granted to most roles (>50%):
//                      co-occurrence columns and LSH bands blow up while the
//                      true groups stay tiny
//   clone-chains       deep chains r_0..r_k, each dropping one user of its
//                      predecessor: at threshold 1 the chain is one long
//                      transitive group; pair caches and union-find see
//                      maximum-depth merge paths
//   hostile-names      entity names with commas, quotes, CR/LF, UTF-8,
//                      journal-tag look-alikes, and an empty name — the
//                      quoting/framing gauntlet for journal, WAL, and CSV
//   standalone-storm   storms of standalone users/permissions, empty roles,
//                      and one-sided roles: structural detectors and the
//                      type-1/2/3 paths at adversarial density
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/engine.hpp"
#include "core/model.hpp"

namespace rolediet::gen {

enum class AdversarialScenario {
  kSimilarityWall,
  kHubPermissions,
  kCloneChains,
  kHostileNames,
  kStandaloneStorm,
};

inline constexpr std::array<AdversarialScenario, 5> kAllAdversarialScenarios{
    AdversarialScenario::kSimilarityWall, AdversarialScenario::kHubPermissions,
    AdversarialScenario::kCloneChains, AdversarialScenario::kHostileNames,
    AdversarialScenario::kStandaloneStorm,
};

/// CLI-facing name ("similarity-wall", ...).
[[nodiscard]] std::string_view to_string(AdversarialScenario scenario) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] AdversarialScenario parse_adversarial_scenario(std::string_view name);

struct AdversarialParams {
  std::uint64_t seed = 1;
  /// Rough size knob; each scenario documents its meaning (wall pairs, hub
  /// roles, chain length x count, name count, storm width). hostile-names
  /// needs at least 9 (its planted pairs use ten users) and throws
  /// std::invalid_argument below that.
  std::size_t scale = 48;
  /// The wall straddles this Hamming threshold...
  std::size_t similarity_threshold = 2;
  /// ...and this Jaccard dissimilarity (used by the Jaccard wall family).
  double jaccard_dissimilarity = 0.3;
};

/// Builds one scenario. Deterministic in (scenario, params).
[[nodiscard]] core::RbacDataset make_adversarial(AdversarialScenario scenario,
                                                 const AdversarialParams& params = {});

/// The dataset as one creation delta — entities in id order, then edges —
/// so replaying it through AuditEngine::apply() on an empty engine
/// reproduces the dataset with identical ids. This is how the corpus flows
/// through the journal, the engine, and the durable store.
[[nodiscard]] core::RbacDelta dataset_as_delta(const core::RbacDataset& dataset);

}  // namespace rolediet::gen
