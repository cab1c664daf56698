#include "core/methods/exact.hpp"

#include <algorithm>
#include <vector>

#include "cluster/metric.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"

namespace rolediet::core::methods {

RoleGroups DbscanGroupFinder::run(const linalg::CsrMatrix& matrix, std::size_t eps,
                                  cluster::MetricKind metric,
                                  const util::ExecutionContext& ctx) const {
  const std::vector<std::size_t> selected = nonempty_rows(matrix);
  const SelectedRowStore rows = select_row_store(matrix, selected, options_.backend);
  const linalg::RowStore store = rows.store();
  const std::size_t n = selected.size();

  // Candidate generation is the paper's exact-baseline behaviour: one
  // brute-force region query per row, each scanning all n rows (sklearn on
  // high-dimensional binary data — the quadratic footprint of Fig. 3).
  // With min_pts = 2 a point is core iff it has any neighbor within eps, and
  // a noise point is never inside another point's eps-neighborhood, so
  // DBSCAN's clusters are exactly the connected components of the
  // "distance <= eps" graph — which is what the union stage computes.
  // cluster::dbscan (the full core/border/noise machinery) remains the
  // reference implementation; dbscan_test pins this finder against it.
  // Under Hamming, the pairs norms alone decide are left to one star after
  // the region queries, so no sink holds them.
  const SimilarVerdict verdict = metric == cluster::MetricKind::kHamming
                                     ? SimilarVerdict::hamming(eps)
                                     : SimilarVerdict::jaccard(eps);
  const auto norm = [&](std::size_t i) { return matrix.row_size(selected[i]); };
  MatchedPairs collected;
  PairPipelineOutcome outcome = pair_pipeline(
      n, n, options_.threads, /*grain=*/64, ctx,
      [&] {
        // Each region query scans the store in contiguous blocks through the
        // SIMD-dispatched batch kernel: row i's words stay hot in registers
        // across the block, many candidates are scored per memory pass, and
        // the bounded contract (limit + 1 past eps) keeps the emitted
        // integers identical to the old pair-at-a-time scan on every
        // backend and dispatch target.
        return [&store, metric, eps,
                scores = std::vector<std::size_t>(kVerifyBlock)](std::size_t i,
                                                                 auto&& emit) mutable {
          const std::size_t rows = store.rows();
          for (std::size_t first = 0; first < rows; first += kVerifyBlock) {
            const std::size_t count = std::min(kVerifyBlock, rows - first);
            cluster::distance_bounded_block(metric, store, i, first, count, eps,
                                            scores.data());
            for (std::size_t k = 0; k < count; ++k) emit(i, first + k, scores[k]);
          }
        };
      },
      [&](std::size_t i, std::size_t j, std::size_t d) {
        return i != j && d <= eps && !verdict.norm_decided(norm(i), norm(j));
      },
      pair_sink_ != nullptr ? &collected : nullptr);
  (void)verdict.unite_norm_decided(n, norm, outcome.forest);

  if (pair_sink_ != nullptr) {
    // The pipeline ran over positions in `selected`; the sink contract is
    // original row ids.
    pair_sink_->clear();
    pair_sink_->reserve(collected.size());
    for (const auto& [a, b] : collected) {
      push_matched_pair(*pair_sink_, selected[a], selected[b]);
    }
  }

  // Region queries report neighborhoods, not unite attempts, so the matched
  // counter keeps DBSCAN's historical vocabulary: derived from the spanning
  // unions (see MatchAccounting).
  return finalize_pipeline(std::move(outcome), selected, /*rows_processed=*/n, work_,
                           MatchAccounting::kDeriveFromMerges);
}

RoleGroups DbscanGroupFinder::find_same(const linalg::CsrMatrix& matrix,
                                        const util::ExecutionContext& ctx) const {
  return run(matrix, 0, cluster::MetricKind::kHamming, ctx);
}

RoleGroups DbscanGroupFinder::find_similar(const linalg::CsrMatrix& matrix,
                                           std::size_t max_hamming,
                                           const util::ExecutionContext& ctx) const {
  return run(matrix, max_hamming, cluster::MetricKind::kHamming, ctx);
}

RoleGroups DbscanGroupFinder::find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                   std::size_t max_scaled,
                                                   const util::ExecutionContext& ctx) const {
  return run(matrix, max_scaled, cluster::MetricKind::kJaccard, ctx);
}

}  // namespace rolediet::core::methods
