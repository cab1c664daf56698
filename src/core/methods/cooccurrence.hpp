// "Our algorithm" — the paper's custom co-occurrence group finder (§III-C).
//
// The paper defines g(Ri, Rj) as the number of user co-occurrences between
// roles Ri and Rj, assembles the co-occurrence matrix C (diagonal = role
// norms |Ri|), and declares roles combinable when the indicator
//     I(i,j) = 1  iff  |Ri| = g(i,j) = |Rj|,  i != j
// holds — i.e. the rows are identical sets. The similar-roles extension uses
// the set identity  hamming(Ri, Rj) = |Ri| + |Rj| - 2 g(i,j).
//
// The implementation never materializes the dense r x r matrix C. Instead:
//
//  find_same  (kRowHash, default): one 64-bit digest per row, bucket by
//    digest, verify buckets by exact set comparison. O(nnz) time, zero
//    pairwise work — this is what makes the method linear and the reason it
//    finishes the paper's 50k-role org in minutes while both baselines blow
//    a 24-hour budget.
//
//  find_same  (kCooccurrenceMatrix, ablation): computes the nonzero entries
//    of C via the inverted user -> roles index and applies the paper's
//    indicator literally. Exact but does pairwise work proportional to
//    sum over users of degree(user)^2 — kept to quantify how much the hash
//    shortcut buys (bench_ablation).
//
//  find_similar(t): the same identity over prefix-filtered candidates
//    (prefix_filter.hpp) — for every role i, only the roles j > i whose t+1
//    rarest users meet i's and that pass the length filter ||Ri| - |Rj|| <=
//    t are scored (one batched intersection pass per role), then pairs with
//    |Ri| + |Rj| - 2 g <= t unite. Every pair within t that shares a user is
//    among them. Pairs sharing *no* user have hamming = |Ri| + |Rj|; one
//    norm-decided star (prefix_filter.hpp) joins those too, so the result
//    is exact: identical groups to DBSCAN on every input, deterministic, no
//    recall loss.
//
// Parallelism (Options::threads, convention in util/thread_pool.hpp): the
// same-set hashing and every candidate sweep split the row range across
// the pool; each chunk accumulates matches into a private union-find that is
// merged into the shared forest afterwards. The matched pair set and the
// resulting connected components are independent of the split, so the
// canonical groups and the work counters are byte-identical at every thread
// count — threads only changes the wall clock.
#pragma once

#include "core/group_finder.hpp"

namespace rolediet::core::methods {

class RoleDietGroupFinder final : public GroupFinder {
 public:
  enum class SameStrategy {
    kRowHash,             ///< digest + verify (default; linear)
    kCooccurrenceMatrix,  ///< the paper's indicator, computed sparsely
  };

  struct Options {
    SameStrategy same_strategy = SameStrategy::kRowHash;
    /// Worker threads for the hashing/sweep stages (knob convention in
    /// util/thread_pool.hpp). Groups are byte-identical for every value.
    std::size_t threads = 1;
  };

  RoleDietGroupFinder() = default;
  explicit RoleDietGroupFinder(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "role-diet"; }

  [[nodiscard]] FinderWorkStats last_work() const noexcept override { return work_; }

  using GroupFinder::find_same;
  using GroupFinder::find_similar;
  using GroupFinder::find_similar_jaccard;
  [[nodiscard]] RoleGroups find_same(const linalg::CsrMatrix& matrix,
                                     const util::ExecutionContext& ctx) const override;
  [[nodiscard]] RoleGroups find_similar(const linalg::CsrMatrix& matrix, std::size_t max_hamming,
                                        const util::ExecutionContext& ctx) const override;
  /// Relative similarity via the same prefix-filtered sweep: Jaccard
  /// dissimilarity is a function of (|Ri|, |Rj|, g) only, and any pair below
  /// the kJaccardScale ceiling shares at least one column, so the filter
  /// (with the Jaccard prefix length) finds every qualifying pair — exact,
  /// like the Hamming variant.
  [[nodiscard]] RoleGroups find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                std::size_t max_scaled,
                                                const util::ExecutionContext& ctx) const override;

 private:
  [[nodiscard]] RoleGroups find_same_hash(const linalg::CsrMatrix& matrix,
                                          const util::ExecutionContext& ctx) const;
  [[nodiscard]] RoleGroups find_same_cooccurrence(const linalg::CsrMatrix& matrix,
                                                  const util::ExecutionContext& ctx) const;

  Options options_{};
  /// Counters of the latest find_* call (see GroupFinder::last_work).
  mutable FinderWorkStats work_{};
};

}  // namespace rolediet::core::methods
