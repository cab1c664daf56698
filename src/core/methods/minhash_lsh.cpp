#include "core/methods/minhash_lsh.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/methods/method_common.hpp"
#include "linalg/convert.hpp"

namespace rolediet::core::methods {

RoleGroups MinHashGroupFinder::verified_groups(const linalg::CsrMatrix& matrix,
                                               const util::ExecutionContext& ctx,
                                               SimilarVerdict verdict) const {
  const linalg::RowBackend backend =
      linalg::choose_backend(options_.backend, matrix.rows(), matrix.cols(), matrix.nnz());
  linalg::BitMatrix densified;
  if (backend == linalg::RowBackend::kDense) densified = linalg::to_dense(matrix);
  const linalg::RowStore store = backend == linalg::RowBackend::kDense
                                     ? linalg::RowStore(densified)
                                     : linalg::RowStore(matrix);
  const cluster::MinHashLsh index(store, options_.lsh, ctx);
  const std::vector<std::pair<std::size_t, std::size_t>> pairs = index.candidate_pairs();

  // Stage 2 fans out over the candidate list in batches: each domain item is
  // a block of gathered pairs scored in one intersection_pairs call (the
  // dispatch-table fetch amortizes over the block), then emitted one by one.
  // Candidate generation is approximate, membership is not: the verifier
  // sees the exact intersection size, so there are no false merges.
  if (pair_sink_ != nullptr) pair_sink_->clear();
  const std::size_t num_blocks = (pairs.size() + kVerifyBlock - 1) / kVerifyBlock;
  PairPipelineOutcome outcome = pair_pipeline(
      num_blocks, matrix.rows(), options_.lsh.threads, /*grain=*/2, ctx,
      [&] {
        return [&pairs, &store, g = std::vector<std::size_t>(kVerifyBlock)](
                   std::size_t blk, auto&& emit) mutable {
          const std::size_t first = blk * kVerifyBlock;
          const std::size_t count = std::min(kVerifyBlock, pairs.size() - first);
          store.intersection_pairs(std::span(pairs).subspan(first, count), g.data());
          for (std::size_t k = 0; k < count; ++k) {
            const auto& [a, b] = pairs[first + k];
            emit(a, b, g[k]);
          }
        };
      },
      [&](std::size_t a, std::size_t b, std::size_t g) {
        return verdict.accepts(matrix.row_size(a), matrix.row_size(b), g);
      },
      pair_sink_);
  // Pairs with no shared element share no min-hash; under Hamming those
  // that norms alone decide join through one star, counted as verified
  // matches, as the pair-by-pair sweep it replaced counted them.
  const std::size_t norm_pairs = verdict.unite_norm_decided(matrix, outcome.forest);
  outcome.pairs_evaluated += norm_pairs;
  outcome.pairs_matched += norm_pairs;
  return finalize_pipeline(std::move(outcome), matrix.rows(), work_);
}

RoleGroups MinHashGroupFinder::find_same(const linalg::CsrMatrix& matrix,
                                         const util::ExecutionContext& ctx) const {
  // The paper's indicator |Ri| = g = |Rj| is Hamming distance 0.
  return verified_groups(matrix, ctx, SimilarVerdict::hamming(0));
}

RoleGroups MinHashGroupFinder::find_similar(const linalg::CsrMatrix& matrix,
                                            std::size_t max_hamming,
                                            const util::ExecutionContext& ctx) const {
  return verified_groups(matrix, ctx, SimilarVerdict::hamming(max_hamming));
}

RoleGroups MinHashGroupFinder::find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                    std::size_t max_scaled,
                                                    const util::ExecutionContext& ctx) const {
  return verified_groups(matrix, ctx, SimilarVerdict::jaccard(max_scaled));
}

}  // namespace rolediet::core::methods
