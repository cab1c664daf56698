#include "core/methods/approx.hpp"

#include <algorithm>

#include "core/methods/method_common.hpp"

namespace rolediet::core::methods {

RoleGroups HnswGroupFinder::run(const linalg::CsrMatrix& matrix, std::size_t radius,
                                cluster::MetricKind metric,
                                const util::ExecutionContext& ctx) const {
  const std::vector<std::size_t> selected = nonempty_rows(matrix);
  const SelectedRowStore rows = select_row_store(matrix, selected, options_.backend);

  cluster::HnswParams params = options_.index;
  params.metric = metric;
  params.ef_search = std::max(params.ef_search, options_.query_ef);
  cluster::HnswIndex index(rows.store(), params);
  index.add_all(ctx);

  // Candidate generation: one HNSW range query per row (read-only searches,
  // so the candidate set is split-independent). Returned distances are exact,
  // so verification only has to drop the self-hit — the beam may miss true
  // neighbors (recall < 1) but never fabricates one.
  const std::size_t n = selected.size();
  MatchedPairs collected;
  PairPipelineOutcome outcome = pair_pipeline(
      n, n, options_.threads, /*grain=*/64, ctx,
      [&] {
        return [&index, radius](std::size_t i, auto&& emit) {
          for (const cluster::Neighbor& hit : index.range_search(i, radius)) {
            emit(i, hit.id, hit.dist);
          }
        };
      },
      [](std::size_t i, std::size_t j, std::size_t) { return j != i; },
      pair_sink_ != nullptr ? &collected : nullptr);

  if (pair_sink_ != nullptr) {
    // Remap pipeline positions (indices into `selected`) to original row ids.
    pair_sink_->clear();
    pair_sink_->reserve(collected.size());
    for (const auto& [a, b] : collected) {
      push_matched_pair(*pair_sink_, selected[a], selected[b]);
    }
  }

  return finalize_pipeline(std::move(outcome), selected, /*rows_processed=*/n, work_);
}

RoleGroups HnswGroupFinder::find_same(const linalg::CsrMatrix& matrix,
                                      const util::ExecutionContext& ctx) const {
  return run(matrix, 0, cluster::MetricKind::kHamming, ctx);
}

RoleGroups HnswGroupFinder::find_similar(const linalg::CsrMatrix& matrix, std::size_t max_hamming,
                                         const util::ExecutionContext& ctx) const {
  return run(matrix, max_hamming, cluster::MetricKind::kHamming, ctx);
}

RoleGroups HnswGroupFinder::find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                 std::size_t max_scaled,
                                                 const util::ExecutionContext& ctx) const {
  return run(matrix, max_scaled, cluster::MetricKind::kJaccard, ctx);
}

}  // namespace rolediet::core::methods
