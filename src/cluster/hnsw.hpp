// HNSW — Hierarchical Navigable Small World graphs for approximate nearest
// neighbor search (Malkov & Yashunin, 2018).
//
// This is the paper's *approximate clustering* baseline (§III-C): build an
// index over all role rows with Manhattan distance (== Hamming on binary
// data), then query each role for near neighbors. Approximate search trades
// recall for speed — the paper argues missed group members are acceptable
// because the cleanup job re-runs periodically.
//
// Full implementation of the published algorithm:
//  - exponentially distributed level assignment, mult = 1/ln(M);
//  - greedy single-entry descent through the upper layers (Alg. 2 with ef=1);
//  - beam search with dynamic candidate list of width ef at the target layer
//    (SEARCH-LAYER, Alg. 2);
//  - neighbor selection by the distance heuristic (SELECT-NEIGHBORS-HEURISTIC,
//    Alg. 4) which keeps diverse edges, with keep-pruned-connections;
//  - bidirectional linking with per-layer degree caps (M at layers >= 1,
//    2M at layer 0), pruned by the same heuristic.
//
// Determinism: level draws come from a seeded xoshiro PRNG, so index
// construction and therefore search results are reproducible.
//
// Steady-state maintenance (core::AuditEngine): remove() tombstones a node
// instead of unlinking it — the dead node keeps routing traffic as a graph
// waypoint but is filtered from results — and reinsert() revives a node in
// place after its row mutated, re-running the insertion searches against the
// row's new contents and appending the fresh edges. Tombstones make deletion
// O(1) and preserve the spanning-tree anchors; the cost is that dead nodes
// still pay distance evaluations during traversal, which is the right trade
// for audit workloads where revoked roles are a small minority per delta.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/metric.hpp"
#include "linalg/row_store.hpp"
#include "util/execution_context.hpp"
#include "util/prng.hpp"

namespace rolediet::cluster {

struct HnswParams {
  std::size_t m = 16;                ///< max out-degree per node on layers >= 1
  std::size_t ef_construction = 200; ///< beam width during insertion
  std::size_t ef_search = 64;        ///< beam width during queries
  std::uint64_t seed = 42;           ///< level-assignment PRNG seed
  /// Distance between rows. Hamming (== Manhattan on 0/1 data, the paper's
  /// setting) or scaled Jaccard for relative similarity.
  MetricKind metric = MetricKind::kHamming;
};

/// A search hit: point id and its distance to the query.
struct Neighbor {
  std::size_t id = 0;
  std::size_t dist = 0;

  [[nodiscard]] bool operator==(const Neighbor&) const noexcept = default;
};

/// HNSW index over the rows of a row store — either matrix backend (a
/// BitMatrix or CsrMatrix converts implicitly). The viewed matrix must
/// outlive the index (rows are referenced, not copied). Distances are
/// backend-invariant, so given the same seed both backends build the same
/// graph and return the same search results.
class HnswIndex {
 public:
  HnswIndex(linalg::RowStore points, HnswParams params);

  // Movable (the engine's HNSW artifact moves with its engine; the viewed
  // matrix is external, so the view survives). The distance counter is the
  // one non-default member: it carries over, single-owner at move time.
  HnswIndex(HnswIndex&& other) noexcept;
  HnswIndex& operator=(HnswIndex&& other) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Inserts point `id` (a row of the matrix). Each id may be added once;
  /// use reinsert() to refresh an id whose row contents changed, and
  /// remove() to retire one. If the viewed matrix has grown since the last
  /// insertion, the id map grows with it, so new rows can be added to a
  /// live index.
  void add(std::size_t id);

  /// Tombstones point `id`: it stops appearing in search results but stays
  /// in the graph as a routing waypoint (its links and anchors are kept, so
  /// layer-0 reachability is unaffected). Idempotent; throws only if `id`
  /// was never indexed.
  void remove(std::size_t id);

  /// Revives point `id` in place after its row contents changed (and/or
  /// after remove()): clears the tombstone, re-runs the insertion-time beam
  /// searches against the new row contents, and appends the freshly selected
  /// edges bidirectionally (existing edges are kept — stale links are
  /// harmless because callers verify distances exactly; overfull lists are
  /// re-pruned). Throws if `id` was never indexed.
  void reinsert(std::size_t id);

  /// True iff `id` is indexed and not tombstoned.
  [[nodiscard]] bool contains(std::size_t id) const noexcept;

  /// Builds the index over all rows in index order. `ctx` is checked once
  /// per insert: a cancelled build leaves a valid index over the rows added
  /// so far (searches simply cannot reach the missing rows).
  void add_all(const util::ExecutionContext& ctx = util::unlimited_context());

  /// Number of graph nodes, *including* tombstones.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// k approximate nearest neighbors of row `query_id`, nearest first.
  /// The query point itself is included if indexed (distance 0).
  /// Tombstoned points never appear in results (here or in the other
  /// search entry points), though they may have carried the beam.
  [[nodiscard]] std::vector<Neighbor> search(std::size_t query_id, std::size_t k) const;

  /// k approximate nearest neighbors of an external packed vector of
  /// util::words_for_bits(cols) words — works on either backend (sparse rows
  /// are probed against the packed query without densifying).
  [[nodiscard]] std::vector<Neighbor> search_vector(std::span<const std::uint64_t> query,
                                                    std::size_t k) const;

  /// All indexed points within `radius` of row `query_id` that the beam of
  /// width max(ef_search, min_ef) reaches. Approximate: recall < 1 possible.
  [[nodiscard]] std::vector<Neighbor> range_search(std::size_t query_id, std::size_t radius,
                                                   std::size_t min_ef = 0) const;

  /// Current top layer of the hierarchy (for diagnostics/tests).
  [[nodiscard]] int max_level() const noexcept { return max_level_; }

  /// Row id of the current entry point; nullopt while the index is empty.
  [[nodiscard]] std::optional<std::size_t> entry_id() const noexcept;

  /// Out-neighbors (row ids) of `id` at `layer`. Diagnostic/test hook.
  [[nodiscard]] std::vector<std::size_t> neighbors_of(std::size_t id, int layer) const;

  /// Total pairwise distance evaluations since construction (build + all
  /// queries; relaxed atomic, so concurrent searches count correctly).
  /// Contrast with DBSCAN's n-squared count to see where the Fig. 3
  /// crossover comes from.
  [[nodiscard]] std::size_t distance_evaluations() const noexcept {
    return distance_evals_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    std::size_t id = 0;
    int level = 0;
    /// Tombstone: the node still routes searches (links/anchors intact) but
    /// is filtered from every result list. Cleared by reinsert().
    bool deleted = false;
    /// links[l] = neighbor slots at layer l, 0 <= l <= level.
    std::vector<std::vector<std::uint32_t>> links;
    /// Layer-0 anchor edges: one per adjacent spanning-tree edge. Anchors are
    /// permanent — shrink_links() never removes them — so the layer-0 graph
    /// always contains a spanning tree of bidirectional edges and every node
    /// stays reachable from the entry point. Without this, heavy distance
    /// ties (binary RBAC rows) let the diversity heuristic erode all in-links
    /// of non-hub nodes and whole regions become unsearchable.
    std::vector<std::uint32_t> anchors;
  };

  /// A query point: either an indexed row (row >= 0) or an external packed
  /// vector. Row queries go through the backend's row kernels; packed queries
  /// probe rows against the packed words directly.
  struct QueryRef {
    std::ptrdiff_t row = -1;
    std::span<const std::uint64_t> packed;
  };

  [[nodiscard]] std::size_t dist(std::size_t a, std::size_t b) const noexcept {
    distance_evals_.fetch_add(1, std::memory_order_relaxed);
    return distance(params_.metric, points_, a, b);
  }
  [[nodiscard]] std::size_t dist_to(const QueryRef& q, std::size_t b) const noexcept {
    distance_evals_.fetch_add(1, std::memory_order_relaxed);
    if (q.row >= 0)
      return distance(params_.metric, points_, static_cast<std::size_t>(q.row), b);
    return distance_to_packed(params_.metric, points_, q.packed, b);
  }

  /// Batched dist_to over a gathered id list: out[k] = dist_to(q, ids[k]),
  /// scored through the SIMD-dispatched gather kernels for row queries
  /// (identical integers, one distance_evals bump per id).
  void dist_to_gather(const QueryRef& q, std::span<const std::uint32_t> ids,
                      std::size_t* out) const noexcept;

  /// Greedy descent at one layer from `entry`, moving to any strictly closer
  /// neighbor until a local minimum (Alg. 2 specialized to ef = 1).
  [[nodiscard]] Neighbor greedy_step(const QueryRef& q, Neighbor entry, int layer) const;

  /// Beam search (SEARCH-LAYER): returns up to `ef` nearest candidates found
  /// from `entry` at `layer`, sorted nearest first.
  [[nodiscard]] std::vector<Neighbor> search_layer(const QueryRef& q, Neighbor entry,
                                                   std::size_t ef, int layer) const;

  /// Shared descent for search()/search_vector(): greedy through the upper
  /// layers, then a beam of width max(ef_search, k) at layer 0.
  [[nodiscard]] std::vector<Neighbor> search_query(const QueryRef& q, std::size_t k) const;

  /// SELECT-NEIGHBORS-HEURISTIC: picks up to `m` diverse neighbors from
  /// `candidates` (sorted nearest first).
  [[nodiscard]] std::vector<std::uint32_t> select_neighbors(std::size_t node_id,
                                                            std::vector<Neighbor> candidates,
                                                            std::size_t m) const;

  /// Re-prunes `node`'s link list at `layer` when it exceeds the cap.
  /// Anchor edges (layer 0) are always retained, even above the cap.
  void shrink_links(std::uint32_t node, int layer);

  [[nodiscard]] int draw_level() noexcept;
  [[nodiscard]] std::size_t layer_capacity(int layer) const noexcept {
    return layer == 0 ? 2 * params_.m : params_.m;
  }

  linalg::RowStore points_;  // non-owning view over the caller's matrix
  HnswParams params_;
  double level_mult_;
  util::Xoshiro256 rng_;

  std::vector<Node> nodes_;               // dense, slot == insertion order
  std::vector<std::int32_t> slot_of_id_;  // row id -> node slot, -1 if absent
  std::int32_t entry_point_ = -1;         // slot of the top-layer entry node
  int max_level_ = -1;
  mutable std::atomic<std::size_t> distance_evals_{0};
};

}  // namespace rolediet::cluster
