// Approximate group finder — the paper's HNSW baseline (§III-C, §III-D).
//
// Mirrors the paper's setup: build an HNSW index over all (non-empty) role
// rows with Manhattan distance (== Hamming on 0/1 vectors), then query the
// index once per role and union the roles found within the radius. Index
// construction dominates at small scale — which is exactly why Fig. 2/3 show
// HNSW losing to DBSCAN below ~7,000 roles and winning above.
//
// Approximation semantics: returned distances are exact (no false merges);
// the beam search may fail to *reach* a true neighbor, so groups can be
// missing members or split (recall < 1). The paper accepts this because the
// cleanup job re-runs periodically and converges.
#pragma once

#include "cluster/hnsw.hpp"
#include "cluster/metric.hpp"
#include "core/group_finder.hpp"

namespace rolediet::core::methods {

class HnswGroupFinder final : public GroupFinder {
 public:
  struct Options {
    cluster::HnswParams index{};
    /// Beam width per role query. 128 keeps near-perfect recall on
    /// department-clustered RBAC data (64 loses duplicate pairs whose region
    /// the narrower beam skips); still approximate by construction.
    std::size_t query_ef = 128;
    /// Worker threads (knob convention in util/thread_pool.hpp) for the
    /// query fan-out; the index build is serial. Groups are byte-identical
    /// for every value.
    std::size_t threads = 1;
    /// Row-kernel backend for index build and queries (linalg/row_store.hpp).
    /// Distances are backend-invariant, so the graph, groups, and work
    /// counters are byte-identical for every choice.
    linalg::RowBackend backend = linalg::RowBackend::kAuto;
  };

  HnswGroupFinder() = default;
  explicit HnswGroupFinder(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "approx-hnsw"; }

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
  [[nodiscard]] RoleGroups run(const linalg::CsrMatrix& matrix, std::size_t radius,
                               cluster::MetricKind metric,
                               const util::ExecutionContext& ctx) const;

  Options options_{};
  /// Counters of the latest find_* call (see GroupFinder::last_work).
  mutable FinderWorkStats work_{};
};

}  // namespace rolediet::core::methods
