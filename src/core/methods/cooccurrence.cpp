#include "core/methods/cooccurrence.hpp"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "cluster/metric.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"
#include "util/thread_pool.hpp"

namespace rolediet::core::methods {

namespace {

/// Stage 1 of the paper-literal ablation (SameStrategy::kCooccurrenceMatrix):
/// sweeps the inverted index accumulating g(i, j) for all j > i that share at
/// least one column with row i, emitting each (i, j, g) into the shared
/// pipeline, where `pred` verifies it.
///
/// Cost: sum over columns of degree(column)^2 / 2 counter increments — the
/// sparse equivalent of forming the nonzero upper triangle of C = A A^T.
/// The scratch counters live in the generator, so each worker chunk gets its
/// own; the emitted pair set is split-independent.
template <typename Predicate>
PairPipelineOutcome cooccurrence_sweep(const linalg::CsrMatrix& matrix, std::size_t threads,
                                       const util::ExecutionContext& ctx, Predicate&& pred) {
  const std::size_t n = matrix.rows();
  const linalg::CsrMatrix transpose = matrix.transpose();
  return pair_pipeline(
      n, n, threads, /*grain=*/256, ctx,  // over-decompose: later rows see fewer j > i pairs
      [&] {
        return [&matrix, &transpose, count = std::vector<std::uint32_t>(matrix.rows(), 0),
                touched = std::vector<std::uint32_t>()](std::size_t i, auto&& emit) mutable {
          for (std::uint32_t col : matrix.row(i)) {
            for (std::uint32_t j : transpose.row(col)) {
              if (j <= i) continue;
              if (count[j] == 0) touched.push_back(j);
              ++count[j];
            }
          }
          for (std::uint32_t j : touched) {
            emit(i, static_cast<std::size_t>(j), static_cast<std::size_t>(count[j]));
            count[j] = 0;
          }
          touched.clear();
        };
      },
      pred);
}

/// The similar phases: every row's prefix-filter candidates j > i
/// (prefix_filter.hpp), scored in one batched intersection pass per row and
/// verified by `verdict` in the shared pipeline, which reaches every match
/// that shares a column. The rarity order comes from this matrix's own
/// column degrees. Pairs sharing none match only when norms alone decide
/// (Hamming): one star joins those, counted as verified matches, as the
/// pair-by-pair sweep it replaced counted them. `matched_sink` is cleared
/// first.
PairPipelineOutcome prefix_sweep(const linalg::CsrMatrix& matrix, SimilarVerdict verdict,
                                 std::size_t threads, const util::ExecutionContext& ctx,
                                 MatchedPairs* matched_sink) {
  if (matched_sink != nullptr) matched_sink->clear();
  const std::size_t n = matrix.rows();
  const std::vector<std::size_t> degrees = matrix.column_sums();
  const PrefixIndex index(matrix, degrees, verdict);
  const linalg::RowStore store(matrix);
  PairPipelineOutcome outcome = pair_pipeline(
      n, n, threads, /*grain=*/256, ctx,  // over-decompose: later rows see fewer j > i pairs
      [&] {
        return [&store, candidates = PrefixCandidates(index)](std::size_t i,
                                                               auto&& emit) mutable {
          candidates.score(i, store, [i](std::size_t j) { return j > i; }, emit);
        };
      },
      [&](std::size_t i, std::size_t j, std::size_t g) {
        return verdict.accepts(matrix.row_size(i), matrix.row_size(j), g);
      },
      matched_sink);
  const std::size_t norm_pairs = verdict.unite_norm_decided(matrix, outcome.forest);
  outcome.pairs_evaluated += norm_pairs;
  outcome.pairs_matched += norm_pairs;
  return outcome;
}

}  // namespace

RoleGroups RoleDietGroupFinder::find_same(const linalg::CsrMatrix& matrix,
                                          const util::ExecutionContext& ctx) const {
  switch (options_.same_strategy) {
    case SameStrategy::kRowHash:
      return find_same_hash(matrix, ctx);
    case SameStrategy::kCooccurrenceMatrix:
      return find_same_cooccurrence(matrix, ctx);
  }
  return {};
}

RoleGroups RoleDietGroupFinder::find_same_hash(const linalg::CsrMatrix& matrix,
                                               const util::ExecutionContext& ctx) const {
  const std::size_t n = matrix.rows();

  // Digest every row in parallel — disjoint output slots, so any split of the
  // range produces the same hashes. The hashed flags keep a cancelled run
  // from bucketing rows that were never digested (their slots would all read
  // zero and pile into one pathological bucket).
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint8_t> hashed(n, 0);
  util::Parallelism par(options_.threads);
  par.parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          if ((r & 255U) == 0 && ctx.expired()) break;
          if (matrix.row_size(r) > 0) hashes[r] = matrix.row_hash(r);
          hashed[r] = 1;
        }
      },
      /*grain=*/512);

  // Bucket rows by digest — O(n), sequential, index order. Buckets with a
  // single member cannot group and are dropped here, exactly as before.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (matrix.row_size(r) == 0 || !hashed[r]) continue;
    buckets[hashes[r]].push_back(r);
  }
  std::vector<std::vector<std::size_t>> bucket_list;
  bucket_list.reserve(buckets.size());
  for (auto& [digest, members] : buckets) {
    if (members.size() >= 2) bucket_list.push_back(std::move(members));
  }

  // Stage 1 generates candidate pairs per bucket by partitioning it into
  // equality classes against class representatives; stage 2 verifies with the
  // exact set comparison, so a digest collision can never merge distinct
  // roles. The generator branches on the emit verdict — that is what makes
  // the class structure (and the comparison count) identical to the
  // sequential partition. Buckets are almost always a single class; the scan
  // is quadratic only in the bucket size.
  PairPipelineOutcome outcome = pair_pipeline(
      bucket_list.size(), n, options_.threads, /*grain=*/64, ctx,
      [&] {
        return [&bucket_list, reps = std::vector<std::size_t>()](std::size_t bucket,
                                                                 auto&& emit) mutable {
          reps.clear();
          for (std::size_t row : bucket_list[bucket]) {
            bool placed = false;
            for (std::size_t rep : reps) {
              if (emit(rep, row, 0)) {
                placed = true;
                break;
              }
            }
            if (!placed) reps.push_back(row);
          }
        };
      },
      [&matrix](std::size_t a, std::size_t b, std::size_t) { return matrix.rows_equal(a, b); });

  return finalize_pipeline(std::move(outcome), /*rows_processed=*/n, work_);
}

RoleGroups RoleDietGroupFinder::find_same_cooccurrence(const linalg::CsrMatrix& matrix,
                                                       const util::ExecutionContext& ctx) const {
  // The paper's indicator: |Ri| = g = |Rj| (empty rows never co-occur, so
  // they are naturally excluded here).
  PairPipelineOutcome outcome = cooccurrence_sweep(
      matrix, options_.threads, ctx, [&](std::size_t i, std::size_t j, std::size_t g) {
        return matrix.row_size(i) == g && matrix.row_size(j) == g;
      });
  return finalize_pipeline(std::move(outcome), matrix.rows(), work_);
}

RoleGroups RoleDietGroupFinder::find_similar(const linalg::CsrMatrix& matrix,
                                             std::size_t max_hamming,
                                             const util::ExecutionContext& ctx) const {
  if (max_hamming == 0) return find_same(matrix, ctx);  // digest path: sink not honored
  // hamming = |Ri| + |Rj| - 2g. Empty rows are never united: groups() with
  // min_size = 2 cannot hold them.
  return finalize_pipeline(prefix_sweep(matrix, SimilarVerdict::hamming(max_hamming),
                                        options_.threads, ctx, pair_sink_),
                           matrix.rows(), work_);
}

RoleGroups RoleDietGroupFinder::find_similar_jaccard(const linalg::CsrMatrix& matrix,
                                                     std::size_t max_scaled,
                                                     const util::ExecutionContext& ctx) const {
  if (max_scaled == 0) return find_same(matrix, ctx);  // digest path: sink not honored

  if (max_scaled >= cluster::kJaccardScale) {
    // Star-union (below): the matched pairs all share the first non-empty
    // row, which is NOT the canonical "every qualifying pair" set — the sink
    // is deliberately not honored here (see collect_matched_pairs()).
    // Threshold admits fully disjoint sets: every non-empty row groups with
    // every other (Jaccard distance is at most kJaccardScale by definition).
    PairPipelineOutcome outcome{cluster::UnionFind(matrix.rows())};
    std::ptrdiff_t first = -1;
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      if ((r & 255U) == 0 && ctx.expired()) break;
      if (matrix.row_size(r) == 0) continue;
      if (first < 0) {
        first = static_cast<std::ptrdiff_t>(r);
      } else {
        ++outcome.pairs_evaluated;
        ++outcome.pairs_matched;
        outcome.forest.unite(static_cast<std::size_t>(first), r);
      }
    }
    return finalize_pipeline(std::move(outcome), matrix.rows(), work_);
  }

  // Below the ceiling a qualifying pair needs g >= 1, i.e. at least one
  // shared column — so the prefix filter reaches every one. The scaled
  // distance uses the same integer formula as the dense kernel, so the
  // exact methods stay bit-identical.
  return finalize_pipeline(prefix_sweep(matrix, SimilarVerdict::jaccard(max_scaled),
                                        options_.threads, ctx, pair_sink_),
                           matrix.rows(), work_);
}

}  // namespace rolediet::core::methods
