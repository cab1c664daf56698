// MinHash-LSH group finder — a second approximate baseline built on the
// signature machinery of the paper's datasketch library (§III-D picked that
// library's HNSW index; this is its other, more traditional set-similarity
// method).
//
// Semantics:
//  - find_same: deterministic recall 1 — identical sets yield identical
//    signatures, so duplicates always share every band bucket; candidates
//    are verified exactly (precision 1);
//  - find_similar(t): candidate pairs from LSH banding are verified with the
//    exact Hamming identity; pairs that norms alone decide (|Ri| + |Rj| <=
//    t) join through the same star the role-diet method uses (LSH cannot
//    see sets with zero overlap). Low-Jaccard pairs within the threshold
//    may be missed — the classic LSH recall trade-off;
//  - find_similar_jaccard: the home game — the banding threshold
//    ~ (1/bands)^(1/rows_per_band) should sit at or below the requested
//    similarity for good recall.
#pragma once

#include "cluster/minhash.hpp"
#include "core/group_finder.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"

namespace rolediet::core::methods {

class MinHashGroupFinder final : public GroupFinder {
 public:
  struct Options {
    /// lsh.threads parallelizes index construction (knob convention in
    /// util/thread_pool.hpp); groups are byte-identical for every value.
    cluster::MinHashParams lsh{};
    /// Row-kernel backend for signature build and candidate verification
    /// (linalg/row_store.hpp). Signatures depend only on the column sets, so
    /// groups and work counters are byte-identical for every choice.
    linalg::RowBackend backend = linalg::RowBackend::kAuto;
  };

  MinHashGroupFinder() = default;
  explicit MinHashGroupFinder(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "approx-minhash"; }

  [[nodiscard]] FinderWorkStats last_work() const noexcept override { return work_; }

  using GroupFinder::find_same;
  using GroupFinder::find_similar;
  using GroupFinder::find_similar_jaccard;
  [[nodiscard]] RoleGroups find_same(const linalg::CsrMatrix& matrix,
                                     const util::ExecutionContext& ctx) const override;
  [[nodiscard]] RoleGroups find_similar(const linalg::CsrMatrix& matrix, std::size_t max_hamming,
                                        const util::ExecutionContext& ctx) const override;
  [[nodiscard]] RoleGroups find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                std::size_t max_scaled,
                                                const util::ExecutionContext& ctx) const override;

 private:
  /// LSH banding candidates, exactly verified by `verdict`, and the pairs
  /// norms alone decide (prefix_filter.hpp), grouped.
  [[nodiscard]] RoleGroups verified_groups(const linalg::CsrMatrix& matrix,
                                           const util::ExecutionContext& ctx,
                                           SimilarVerdict verdict) const;

  Options options_{};
  /// Counters of the latest find_* call (see GroupFinder::last_work).
  mutable FinderWorkStats work_{};
};

}  // namespace rolediet::core::methods
