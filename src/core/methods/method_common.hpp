// Shared helpers for the group-finder implementations, and the
// candidate → verify → union pipeline every method runs on.
//
// All four finders (§III-C: DBSCAN, HNSW, MinHash-LSH, co-occurrence) share
// one three-stage shape — the enumerate-candidates-then-verify framing of the
// role-mining literature:
//   1. candidate generation  — method-specific: brute-force region scans,
//      HNSW range queries, LSH band buckets, prefix-filter postings
//      (prefix_filter.hpp), digest buckets;
//   2. exact verification    — a predicate over RowStore kernel integers,
//      fed in BATCHES: generators score a block of candidates per call into
//      the SIMD-dispatched batch kernels (linalg/kernels — one query row
//      register-tiled against many stored rows per memory pass) and then
//      emit each scored pair. Every dispatch target computes identical
//      integers, so batching changes throughput, never verdicts.
//      Approximation only ever loses candidates, never verdicts, so every
//      united pair is a true positive for every method;
//   3. union-find grouping   — connected components of the verified pairs,
//      canonicalized into RoleGroups.
//
// pair_pipeline() below implements stages 2-3 plus every cross-cutting
// concern the methods used to duplicate: thread fan-out with chunk-local
// forests and spanning-pair replay, deterministic FinderWorkStats
// accounting, and cooperative cancellation via util::ExecutionContext.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "cluster/union_find.hpp"
#include "core/group_finder.hpp"
#include "core/taxonomy.hpp"
#include "linalg/bit_matrix.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/row_store.hpp"
#include "util/execution_context.hpp"
#include "util/thread_pool.hpp"

namespace rolediet::core::methods {

/// Candidates scored per batched-verify kernel call. Large enough to
/// amortize the dispatch-table fetch and keep the block kernels' register
/// tiling fed; small enough that a block of scores stays L1-resident and
/// cancellation latency stays at sub-millisecond granularity.
inline constexpr std::size_t kVerifyBlock = 256;

/// Indices of rows with at least one entry. Group finders operate on these
/// only (empty roles are type-2 findings, see group_finder.hpp).
[[nodiscard]] inline std::vector<std::size_t> nonempty_rows(const linalg::CsrMatrix& matrix) {
  std::vector<std::size_t> rows;
  rows.reserve(matrix.rows());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    if (matrix.row_size(r) > 0) rows.push_back(r);
  }
  return rows;
}

/// Densifies only the selected rows into a packed matrix whose row i holds
/// original row selected[i]. Lets the dense-kernel methods skip empty rows
/// without copying the whole matrix.
[[nodiscard]] inline linalg::BitMatrix densify_rows(const linalg::CsrMatrix& matrix,
                                                    const std::vector<std::size_t>& selected) {
  linalg::BitMatrix dense(selected.size(), matrix.cols());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    auto words = dense.row_mut(i);
    for (std::uint32_t c : matrix.row(selected[i])) {
      words[c / 64] |= std::uint64_t{1} << (c % 64);
    }
  }
  return dense;
}

/// A row selection materialized on one resolved backend. Exactly one of the
/// two matrices is populated; store() views it, so the struct must outlive
/// the view (RowStore is non-owning).
struct SelectedRowStore {
  linalg::BitMatrix dense;
  linalg::CsrMatrix sparse;
  linalg::RowBackend backend = linalg::RowBackend::kDense;  // resolved, never kAuto

  [[nodiscard]] linalg::RowStore store() const noexcept {
    return backend == linalg::RowBackend::kSparse ? linalg::RowStore(sparse)
                                                  : linalg::RowStore(dense);
  }
};

/// Copies the selected rows onto the backend `requested` resolves to. kAuto
/// decides by the density of the selected submatrix (the rows a method will
/// actually scan), not the full matrix.
[[nodiscard]] inline SelectedRowStore select_row_store(const linalg::CsrMatrix& matrix,
                                                       const std::vector<std::size_t>& selected,
                                                       linalg::RowBackend requested) {
  std::size_t nnz = 0;
  for (std::size_t r : selected) nnz += matrix.row_size(r);
  SelectedRowStore out;
  out.backend = linalg::choose_backend(requested, selected.size(), matrix.cols(), nnz);
  if (out.backend == linalg::RowBackend::kSparse) {
    out.sparse = linalg::CsrMatrix::gather_rows(matrix, selected);
  } else {
    out.dense = densify_rows(matrix, selected);
  }
  return out;
}

// ===== The shared candidate → verify → union pipeline =======================

/// Stages 2-3 of the pipeline, before group extraction: the forest of all
/// verified unions plus the pair counters accumulated on the way.
struct PairPipelineOutcome {
  cluster::UnionFind forest;
  std::size_t pairs_evaluated = 0;  ///< candidates handed to the verifier
  std::size_t pairs_matched = 0;    ///< candidates that passed (unite attempts)
};

/// Normalized (a < b) verified pairs, collected for callers that cache
/// verdicts across runs (core/engine.hpp). May contain duplicates when a
/// generator emits a pair from both endpoints; consumers sort + unique.
using MatchedPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Appends pair (i, j) to `sink` in normalized (min, max) order.
inline void push_matched_pair(MatchedPairs& sink, std::size_t i, std::size_t j) {
  const auto a = static_cast<std::uint32_t>(i);
  const auto b = static_cast<std::uint32_t>(j);
  sink.emplace_back(std::min(a, b), std::max(a, b));
}

/// Runs the shared stages over a candidate generator.
///
/// `domain_size` indexes the method's candidate domain — matrix rows for the
/// sweep/query methods, LSH candidate-pair slots, digest buckets — and
/// `num_points` sizes the forest. `generator_factory()` is invoked once per
/// worker chunk and must return a callable `(std::size_t item, auto&& emit)`;
/// chunk-local scratch (e.g. co-occurrence counters) lives in the returned
/// callable. For every candidate the generator calls `emit(i, j, g)`, which
/// runs `verify(i, j, g)` (an exact predicate over RowStore kernel integers),
/// counts it, unites on success, and returns the verdict — generators whose
/// candidate structure depends on prior verdicts (digest-bucket equality
/// classes) branch on the return value.
///
/// Cross-cutting behaviour, implemented once here for all methods:
///  - thread fan-out under the util/thread_pool.hpp knob convention: each
///    chunk unites into a private forest and replays only its spanning pairs
///    into the shared forest under a mutex, so the mutex-held merge is
///    O(chunk merges), not O(num_points);
///  - determinism: the verified pair *set* and the counters are sums over
///    domain items, independent of how the domain splits, so groups and
///    FinderWorkStats are byte-identical at every thread count;
///  - cancellation: `ctx` is checked once per domain item (region-query /
///    candidate-batch granularity). A chunk that observes expiry stops
///    generating; pairs already verified stay united, so a cancelled run's
///    groups are a co-membership subset of the complete run's groups.
///
/// When `matched_sink` is non-null every verified pair is also appended to it
/// (normalized, possibly with duplicates; the pair *set* is thread-count
/// independent even though the order is not — callers sort + unique). This is
/// the dirty-set-restricted re-audit hook: core/engine.hpp caches the full
/// matched pair set of a phase and later re-verifies only pairs touching
/// mutated rows.
template <typename GeneratorFactory, typename Verify>
[[nodiscard]] PairPipelineOutcome pair_pipeline(std::size_t domain_size, std::size_t num_points,
                                                std::size_t threads, std::size_t grain,
                                                const util::ExecutionContext& ctx,
                                                GeneratorFactory&& generator_factory,
                                                Verify&& verify,
                                                MatchedPairs* matched_sink = nullptr) {
  PairPipelineOutcome out{cluster::UnionFind(num_points)};
  std::atomic<std::size_t> evaluated{0};
  std::atomic<std::size_t> matched{0};
  std::mutex merge_mutex;

  util::Parallelism par(threads);
  par.parallel_for(
      domain_size,
      [&](std::size_t begin, std::size_t end) {
        cluster::UnionFind local(num_points);
        // Spanning unions of the chunk-local forest (<= num_points - 1):
        // enough to reconstruct its components in the shared forest.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> spanning;
        MatchedPairs collected;
        std::size_t local_evaluated = 0;
        std::size_t local_matched = 0;
        auto emit = [&](std::size_t i, std::size_t j, std::size_t g) -> bool {
          ++local_evaluated;
          if (!verify(i, j, g)) return false;
          ++local_matched;
          if (matched_sink != nullptr) push_matched_pair(collected, i, j);
          if (local.unite(i, j)) {
            spanning.emplace_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
          }
          return true;
        };
        auto generate = generator_factory();
        for (std::size_t item = begin; item < end; ++item) {
          if (ctx.expired()) break;
          generate(item, emit);
        }
        evaluated.fetch_add(local_evaluated, std::memory_order_relaxed);
        matched.fetch_add(local_matched, std::memory_order_relaxed);
        std::scoped_lock lock(merge_mutex);
        for (const auto& [a, b] : spanning) out.forest.unite(a, b);
        if (matched_sink != nullptr) {
          matched_sink->insert(matched_sink->end(), collected.begin(), collected.end());
        }
      },
      grain);

  out.pairs_evaluated = evaluated.load();
  out.pairs_matched = matched.load();
  return out;
}

/// How finalize_pipeline() fills the matched/merge counters.
enum class MatchAccounting {
  /// The generator emits individual candidate pairs: report the pipeline's
  /// own counters; merge_conflicts = pairs_matched - merges (the redundant,
  /// already-connected matches).
  kFromPipeline,
  /// The method's vocabulary has no per-pair match events (DBSCAN's region
  /// queries report neighborhoods, not unite attempts): derive
  /// pairs_matched = merges, merge_conflicts = 0 — the historical mapping in
  /// FinderWorkStats terms.
  kDeriveFromMerges,
};

/// Fills the work counters from a pipeline outcome and the final groups.
/// `merges` always derives from the final groups (spanning unions), so it is
/// independent of union order and thread count.
inline void fill_pipeline_work(const RoleGroups& out, const PairPipelineOutcome& outcome,
                               std::size_t rows_processed, FinderWorkStats& work,
                               MatchAccounting accounting) {
  work = {};
  work.rows_processed = rows_processed;
  work.pairs_evaluated = outcome.pairs_evaluated;
  work.merges = out.roles_in_groups() - out.group_count();
  if (accounting == MatchAccounting::kDeriveFromMerges) {
    work.pairs_matched = work.merges;
    work.merge_conflicts = 0;
  } else {
    work.pairs_matched = outcome.pairs_matched;
    work.merge_conflicts = work.pairs_matched - work.merges;
  }
}

/// Stage 3 tail shared by every method: extracts canonical groups (>= 2
/// members) from the forest and fills the work counters.
[[nodiscard]] inline RoleGroups finalize_pipeline(
    PairPipelineOutcome&& outcome, std::size_t rows_processed, FinderWorkStats& work,
    MatchAccounting accounting = MatchAccounting::kFromPipeline) {
  RoleGroups out;
  out.groups = outcome.forest.groups(2);
  out.normalize();
  fill_pipeline_work(out, outcome, rows_processed, work, accounting);
  return out;
}

/// Maps groups over filtered indices back to original role ids and puts them
/// in canonical form.
[[nodiscard]] inline RoleGroups remap_groups(std::vector<std::vector<std::size_t>> filtered_groups,
                                             const std::vector<std::size_t>& selected) {
  RoleGroups out;
  out.groups.reserve(filtered_groups.size());
  for (auto& group : filtered_groups) {
    std::vector<std::size_t> mapped;
    mapped.reserve(group.size());
    for (std::size_t idx : group) mapped.push_back(selected[idx]);
    out.groups.push_back(std::move(mapped));
  }
  out.normalize();
  return out;
}

/// finalize_pipeline over a filtered-row domain: the forest indexes positions
/// in `selected`; groups are remapped to original role ids before the
/// counters are filled.
[[nodiscard]] inline RoleGroups finalize_pipeline(
    PairPipelineOutcome&& outcome, const std::vector<std::size_t>& selected,
    std::size_t rows_processed, FinderWorkStats& work,
    MatchAccounting accounting = MatchAccounting::kFromPipeline) {
  RoleGroups out = remap_groups(outcome.forest.groups(2), selected);
  fill_pipeline_work(out, outcome, rows_processed, work, accounting);
  return out;
}

}  // namespace rolediet::core::methods
