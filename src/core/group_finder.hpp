// Common interface for the three role-group detection methods (§III-C).
//
// Each method consumes one assignment matrix — RUAM to group roles by users,
// RPAM to group roles by permissions; the algorithm is identical either way
// ("feed RPAM instead of RUAM into them") — and returns canonical RoleGroups.
//
// Semantics shared by all methods:
//  - find_same: groups of >= 2 roles whose row sets are identical;
//  - find_similar(t): groups of >= 2 roles connected by pairwise Hamming
//    distance <= t (transitive closure, as produced by density-based
//    clustering; t = 0 degenerates to find_same);
//  - rows with no entries are excluded: an empty role is a type-2 finding
//    (role without users/permissions), not a duplicate-role finding, and
//    grouping thousands of empty rows together would only restate it.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/taxonomy.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/row_store.hpp"
#include "util/execution_context.hpp"

namespace rolediet::core {

/// Work counters reported by the (possibly parallelized) detection stages.
/// Every field is a deterministic function of the input matrix and the
/// method's parameters — never of the thread count — so a counter mismatch
/// between a serial and a parallel run is a correctness bug, not noise.
struct FinderWorkStats {
  std::size_t rows_processed = 0;   ///< matrix rows the stage visited
  std::size_t pairs_evaluated = 0;  ///< candidate pairs scored/compared
  std::size_t pairs_matched = 0;    ///< pairs that passed the predicate (unite attempts)
  std::size_t merges = 0;           ///< spanning unions: roles_in_groups - group_count
  std::size_t merge_conflicts = 0;  ///< redundant matched pairs: pairs_matched - merges
};

class GroupFinder {
 public:
  virtual ~GroupFinder() = default;

  /// Human-readable method name for reports and benchmark tables.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Counters of the most recent find_* call on this object. Finders that
  /// track work overwrite this per call (even though find_* are const, the
  /// counters are mutable bookkeeping); the default is all-zero. Not
  /// synchronized: do not call find_* concurrently on one finder object.
  [[nodiscard]] virtual FinderWorkStats last_work() const noexcept { return {}; }

  /// Groups of roles with identical (non-empty) row sets.
  ///
  /// Every find_* runs under an ExecutionContext checked at region-query /
  /// candidate-batch granularity: once `ctx` expires mid-run the method stops
  /// generating candidates and returns the groups verified so far — always a
  /// subset (at the co-membership-pair level) of the uncancelled run's groups,
  /// because only exactly-verified pairs are ever united. The context-free
  /// overloads run unlimited.
  [[nodiscard]] virtual RoleGroups find_same(const linalg::CsrMatrix& matrix,
                                             const util::ExecutionContext& ctx) const = 0;
  [[nodiscard]] RoleGroups find_same(const linalg::CsrMatrix& matrix) const {
    return find_same(matrix, util::unlimited_context());
  }

  /// Groups of roles whose row sets are within Hamming distance
  /// `max_hamming` of another group member (transitively closed).
  [[nodiscard]] virtual RoleGroups find_similar(const linalg::CsrMatrix& matrix,
                                                std::size_t max_hamming,
                                                const util::ExecutionContext& ctx) const = 0;
  [[nodiscard]] RoleGroups find_similar(const linalg::CsrMatrix& matrix,
                                        std::size_t max_hamming) const {
    return find_similar(matrix, max_hamming, util::unlimited_context());
  }

  /// Relative variant of type-5 detection: groups of roles within scaled
  /// Jaccard dissimilarity `max_scaled` (0 = identical sets,
  /// cluster::kJaccardScale = disjoint sets) of another member, transitively
  /// closed. An absolute Hamming threshold treats a 3-user role and a
  /// 300-user role alike; the relative threshold ("at least 90% overlapping
  /// users" == max_scaled 100'000) is the natural generalization for large
  /// roles. All three methods compute bit-identical scaled distances, so the
  /// exact methods agree exactly here too.
  [[nodiscard]] virtual RoleGroups find_similar_jaccard(
      const linalg::CsrMatrix& matrix, std::size_t max_scaled,
      const util::ExecutionContext& ctx) const = 0;
  [[nodiscard]] RoleGroups find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                std::size_t max_scaled) const {
    return find_similar_jaccard(matrix, max_scaled, util::unlimited_context());
  }

  /// Arms a sink that the *pair-verifying* detection paths fill with every
  /// verified pair of the next find_* call (original row ids, normalized
  /// a < b, may contain duplicates — consumers sort + unique). Honored by
  /// find_similar / find_similar_jaccard at non-degenerate thresholds for all
  /// four methods, and by the finders whose find_same verifies explicit pairs
  /// (DBSCAN, HNSW, MinHash). NOT honored by paths whose matched set is not
  /// the canonical pair set: the role-diet digest partition (find_same /
  /// threshold-0 delegation emits representative pairs only) and the Jaccard
  /// ceiling star-union — those leave the sink untouched — and the
  /// norm-decided star every Hamming finder but HNSW joins
  /// (methods::SimilarVerdict::unite_norm_decided), whose pairs reach the
  /// sink only when a finder also verified them. Pass nullptr to disarm.
  /// Like last_work(), this is unsynchronized mutable bookkeeping: do not
  /// call find_* concurrently on one finder object.
  void collect_matched_pairs(std::vector<std::pair<std::uint32_t, std::uint32_t>>* sink) const
      noexcept {
    pair_sink_ = sink;
  }

 protected:
  /// See collect_matched_pairs(). Implementations append to it (after
  /// clearing) in the paths documented above.
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>>* pair_sink_ = nullptr;
};

/// Converts a human-friendly dissimilarity fraction in [0, 1] to the scaled
/// integer threshold find_similar_jaccard expects.
[[nodiscard]] constexpr std::size_t jaccard_threshold(double dissimilarity) noexcept {
  if (dissimilarity <= 0.0) return 0;
  if (dissimilarity >= 1.0) return 1'000'000;
  return static_cast<std::size_t>(dissimilarity * 1'000'000.0);
}

/// Detection method selector used by the framework and benchmarks.
enum class Method {
  kExactDbscan,    ///< exact clustering baseline (DBSCAN, Hamming metric)
  kApproxHnsw,     ///< approximate baseline (HNSW range queries)
  kApproxMinhash,  ///< approximate baseline (MinHash-LSH candidates)
  kRoleDiet,       ///< the paper's custom co-occurrence algorithm
};

[[nodiscard]] constexpr std::string_view to_string(Method method) noexcept {
  switch (method) {
    case Method::kExactDbscan: return "exact-dbscan";
    case Method::kApproxHnsw: return "approx-hnsw";
    case Method::kApproxMinhash: return "approx-minhash";
    case Method::kRoleDiet: return "role-diet";
  }
  return "?";
}

/// Method-independent knobs shared by every finder the framework constructs.
/// For method-specific tuning construct the concrete classes directly.
struct GroupFinderOptions {
  /// Worker threads for the parallelized stages, under the library-wide knob
  /// convention documented in util/thread_pool.hpp (1 = sequential,
  /// 0 = shared default pool, N >= 2 = private pool of N workers). Results
  /// are byte-identical for every value; only the wall clock changes.
  std::size_t threads = 1;
  /// Row-kernel backend for the distance kernels (linalg/row_store.hpp):
  /// kAuto picks sparse below the density threshold. Groups, reports, and
  /// work counters are byte-identical for every choice; only the wall clock
  /// and bytes touched change. The role-diet method ignores this — its
  /// prefix-filtered sweep is natively sparse and has no dense variant.
  linalg::RowBackend backend = linalg::RowBackend::kAuto;
};

/// Creates a finder with each method's default parameters. For tuned
/// parameters construct the concrete classes in core/methods/ directly.
[[nodiscard]] std::unique_ptr<GroupFinder> make_group_finder(Method method);

/// Creates a finder with the shared knobs applied (each method maps `options`
/// onto its own Options struct).
[[nodiscard]] std::unique_ptr<GroupFinder> make_group_finder(Method method,
                                                             const GroupFinderOptions& options);

}  // namespace rolediet::core
