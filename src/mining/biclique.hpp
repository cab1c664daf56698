// Maximal-biclique enumeration over the user-permission bipartite graph.
//
// A biclique (U, C) — every user in U holding every permission in C — is
// *maximal* exactly when C is a closed permission set: C equals the
// intersection of the permission sets of all users that contain C. Those
// users are C's *support*, the other side of the biclique. Tripunitara 2024
// frames role minimization over exactly this candidate family.
//
// The enumerator is LCM (Uno, Kiyomi & Arimura, FIMI 2004): a depth-first
// search by prefix-preserving closure extension over the class rows, with
// permission ids as the item order. A node is a closed set P with its
// occurrence list occ(P), the ascending classes whose row contains P — its
// support. For each item e above the item that created P and outside P, the
// child is Q = closure(P + e), the intersection of the rows in
// occ(P + e); Q is kept only if it adds no item below e. Every closed set
// with non-empty support is reached exactly once, so the search needs no
// dedup map, and each set's support comes out with it. Two shortcuts keep the
// search lean:
//   - an extension whose occurrence list holds one class closes to that
//     class's row, which is a seed (below) and a leaf, so it is skipped
//     without computing a closure;
//   - closures run on the UPA's resolved backend and never densify: ANDs of
//     packed words on the dense mirror (the words below e first, rejecting at
//     the first bit outside P), a sorted merge of CSR rows otherwise.
// The search state lives in heap frames indexed by depth (depth grows with
// row length, so it stays off the call stack), and nothing is sorted or
// allocated per node once the frames have grown.
//
// Output order: the class rows come first, in class order (`num_seeds` of
// them); the other closed sets follow in DFS pre-order, children by
// extension item ascending. The list is identical on both backends and at
// every thread count (the search is sequential).
//
// The search can be exponential in the worst case, so a candidate cap and
// the shared ExecutionContext deadline both stop it early with `truncated`
// set. Either cut leaves a prefix of the uncapped list. Truncation costs only
// completeness — every emitted set is still a genuine closed set with its
// exact support, so every downstream plan remains safe (the miner's mop-up
// phase covers whatever the candidate pool cannot).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "mining/upa.hpp"
#include "util/execution_context.hpp"

namespace rolediet::mining {

struct BicliqueOptions {
  /// Hard cap on the candidate count (seeds always fit; the search stops at
  /// the first closed set past the cap and sets `truncated`). 0 means
  /// unlimited.
  std::size_t max_candidates = 50'000;

  /// Unused: the search is sequential. Kept so existing callers that set it
  /// still compile.
  std::size_t threads = 1;
};

/// The candidate closed sets, in the order described above.
struct CandidateSet {
  std::vector<std::vector<core::Id>> permission_sets;  ///< sorted, distinct, non-empty
  /// supports[i]: the classes whose row contains permission_sets[i],
  /// ascending — exact for every emitted set, truncated or not.
  std::vector<std::vector<std::uint32_t>> supports;
  std::size_t num_seeds = 0;       ///< leading entries that are class rows
  std::size_t intersections = 0;   ///< closures computed
  bool truncated = false;          ///< cap or deadline stopped the search
};

/// Enumerates all maximal bicliques of the UPA (as closed permission sets
/// with their supports), up to the cap / deadline.
[[nodiscard]] CandidateSet enumerate_closed_sets(
    const UpaClasses& upa, const BicliqueOptions& options,
    const util::ExecutionContext& ctx = util::unlimited_context());

}  // namespace rolediet::mining
