// Prefix-filtered candidate generation for the exact similar phases.
//
// The paper's similar phase (§III-C) counts g(Ri, Rj) for every pair of roles
// that share a column and then tests the distance. Almost all of those pairs
// fail. The prefix filter of set-similarity joins (AllPairs: Bayardo, Ma &
// Srikant, WWW 2007; PPJoin: Xiao et al., WWW 2008) keeps only the pairs that
// share a column among each row's first few columns under one global column
// order, and it is exact for both verdicts:
//
//   Take any fixed total order and let z be the first column of x ∩ y in it.
//   Every column of x before z lies in x \ y, so z is among the first
//   |x \ y| + 1 columns of x (and symmetrically of y). Among all y with a
//   given m = |x \ y|, the closest is y ⊂ x, at distance dist(n, n-m, n-m)
//   with n = |x|; that distance is non-decreasing in m for both integer
//   formulas. So any y within the threshold has m <= prefix_length(n) - 1,
//   and z lies in both rows' prefixes.
//
// Pairs with x ∩ y = ∅ are outside the filter's reach; under Hamming they
// match exactly when |x| + |y| <= t (norms alone decide), and
// SimilarVerdict::unite_norm_decided joins every such pair as one star.
// Jaccard below its ceiling never matches a disjoint pair.
//
// The order is (column degree, column id): rarest first. Any fixed order is
// exact; rarity keeps hub columns — granted to most roles — out of almost
// every prefix, so the postings stay short even on hub-heavy data.
//
// The length filter rides along: dist(|x|, |y|, g) is non-increasing in g, so
// a pair with dist(|x|, |y|, min(|x|, |y|)) > threshold can never match.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/union_find.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/row_store.hpp"

namespace rolediet::core::methods {

/// The integer verdict of a similar phase: dist(|a|, |b|, g) <= threshold,
/// where dist is the Hamming identity |a| + |b| - 2g or the scaled Jaccard
/// dissimilarity (cluster::jaccard_scaled_from_counts).
class SimilarVerdict {
 public:
  [[nodiscard]] static SimilarVerdict hamming(std::size_t max_hamming) noexcept {
    return SimilarVerdict(false, max_hamming);
  }
  [[nodiscard]] static SimilarVerdict jaccard(std::size_t max_scaled) noexcept {
    return SimilarVerdict(true, max_scaled);
  }

  /// dist(na, nb, g) <= threshold for norms (na, nb) and overlap g.
  [[nodiscard]] bool accepts(std::size_t na, std::size_t nb, std::size_t g) const noexcept {
    return distance(na, nb, g) <= threshold_;
  }

  /// Length filter: false when no overlap can bring norms (na, nb) within
  /// the threshold.
  [[nodiscard]] bool lengths_compatible(std::size_t na, std::size_t nb) const noexcept {
    return accepts(na, nb, std::min(na, nb));
  }

  /// 1 + the largest m < n with distance(n, n - m, n - m) <= threshold (0
  /// for an empty row): min(n, t + 1) under Hamming; under Jaccard a binary
  /// search over the integer formula itself, so no floating-point bound
  /// enters.
  [[nodiscard]] std::size_t prefix_length(std::size_t n) const noexcept;

  /// Norms alone decide the pair: under Hamming, non-empty rows with
  /// na + nb <= t match whatever they share (d = na + nb - 2g). Every other
  /// match is content-decided (g >= 1). Never under Jaccard.
  [[nodiscard]] bool norm_decided(std::size_t na, std::size_t nb) const noexcept {
    return !jaccard_ && na + nb <= threshold_;
  }

  /// Joins every norm-decided pair of rows [0, rows) in `forest`. The norm
  /// relation is a threshold graph: with m the smallest non-zero norm, every
  /// such pair lies in S = {rows with 1 <= norm(r) <= t - m}, and every row of
  /// S matches the first row of norm m, so one star around it gives the
  /// components in O(rows). Returns the number of norm-decided pairs, counted
  /// from S's sorted norms; 0 at once under Jaccard or for t < 2.
  template <typename Norm>
  std::size_t unite_norm_decided(std::size_t rows, Norm&& norm, cluster::UnionFind& forest) const {
    if (jaccard_ || threshold_ < 2) return 0;
    std::size_t m = 0;  // the smallest non-zero norm, first held by row `center`
    std::size_t center = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t n = norm(r);
      if (n > 0 && (m == 0 || n < m)) {
        m = n;
        center = r;
      }
    }
    if (m == 0 || m > threshold_) return 0;  // t - m is formed only when m <= t
    std::vector<std::size_t> norms;          // S's
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t n = norm(r);
      if (n == 0 || n > threshold_ - m) continue;
      norms.push_back(n);
      if (r != center) forest.unite(center, r);
    }
    std::sort(norms.begin(), norms.end());
    std::size_t pairs = 0;  // per norm, the later norms that fit beside it
    for (auto it = norms.begin(); it != norms.end(); ++it) {
      pairs += std::upper_bound(it + 1, norms.end(), threshold_ - *it) - (it + 1);
    }
    return pairs;
  }

  std::size_t unite_norm_decided(const linalg::CsrMatrix& m, cluster::UnionFind& forest) const {
    return unite_norm_decided(m.rows(), [&m](std::size_t r) { return m.row_size(r); }, forest);
  }

 private:
  SimilarVerdict(bool jaccard, std::size_t threshold) noexcept
      : jaccard_(jaccard), threshold_(threshold) {}

  /// The verdict's own integer distance for norms (na, nb) and overlap g.
  [[nodiscard]] std::size_t distance(std::size_t na, std::size_t nb, std::size_t g) const noexcept;

  bool jaccard_ = false;
  std::size_t threshold_ = 0;
};

/// Each non-empty row's prefix_length() rarest columns under the order
/// (degree, column id), with flat CSR postings column -> rows (rows
/// ascending). Built in O(nnz + cols); no vector per column.
class PrefixIndex {
 public:
  /// `row(r)` returns row r's sorted columns; `degrees` ranks every column
  /// (any values give an exact index — rarity only keeps it small).
  template <typename RowFn>
  PrefixIndex(std::size_t rows, std::span<const std::size_t> degrees, SimilarVerdict verdict,
              RowFn&& row)
      : verdict_(verdict) {
    norms_.reserve(rows);
    prefix_ptr_.reserve(rows + 1);
    prefix_ptr_.push_back(0);
    std::vector<std::uint64_t> keys;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const std::uint32_t> cells = row(r);
      norms_.push_back(static_cast<std::uint32_t>(cells.size()));
      append_prefix(cells, degrees, keys);
      prefix_ptr_.push_back(prefix_cols_.size());
    }
    build_postings(degrees.size());
  }

  PrefixIndex(const linalg::CsrMatrix& matrix, std::span<const std::size_t> degrees,
              SimilarVerdict verdict)
      : PrefixIndex(matrix.rows(), degrees, verdict,
                    [&matrix](std::size_t r) { return matrix.row(r); }) {}

  [[nodiscard]] const SimilarVerdict& verdict() const noexcept { return verdict_; }
  [[nodiscard]] std::size_t rows() const noexcept { return norms_.size(); }
  [[nodiscard]] std::size_t norm(std::size_t r) const noexcept { return norms_[r]; }
  /// Total prefix tokens over all rows.
  [[nodiscard]] std::size_t entries() const noexcept { return prefix_cols_.size(); }

  [[nodiscard]] std::span<const std::uint32_t> prefix(std::size_t r) const noexcept {
    return std::span<const std::uint32_t>(prefix_cols_)
        .subspan(prefix_ptr_[r], prefix_ptr_[r + 1] - prefix_ptr_[r]);
  }
  /// Rows whose prefix holds column c, ascending.
  [[nodiscard]] std::span<const std::uint32_t> postings(std::uint32_t c) const noexcept {
    return std::span<const std::uint32_t>(post_rows_)
        .subspan(post_ptr_[c], post_ptr_[c + 1] - post_ptr_[c]);
  }

 private:
  /// Appends the prefix_length(|cells|) columns of `cells` that come first
  /// in (degree, id) order; `keys` is scratch.
  void append_prefix(std::span<const std::uint32_t> cells, std::span<const std::size_t> degrees,
                     std::vector<std::uint64_t>& keys);
  void build_postings(std::size_t cols);

  SimilarVerdict verdict_;
  std::vector<std::uint32_t> norms_;
  std::vector<std::size_t> prefix_ptr_;
  std::vector<std::uint32_t> prefix_cols_;
  std::vector<std::size_t> post_ptr_;
  std::vector<std::uint32_t> post_rows_;
};

/// Per-worker candidate generator over one PrefixIndex, shared by the batch
/// finder (accepting j > i), the engine's delta reaudit (accepting its
/// dirty-frontier dedupe rule) and the sharded exchange (accepting j > i in
/// another shard). Holds a stamp per row, so each candidate is produced once
/// per query row however many prefix columns it shares.
class PrefixCandidates {
 public:
  explicit PrefixCandidates(const PrefixIndex& index)
      : index_(&index), seen_(index.rows(), 0) {}

  /// Rows j != i that share a prefix column with row i, pass `accept(j)` and
  /// the length filter — each once. The span is valid until the next call.
  template <typename Accept>
  std::span<const std::uint32_t> collect(std::size_t i, Accept&& accept) {
    cand_.clear();
    const std::size_t ni = index_->norm(i);
    if (ni == 0) return cand_;
    if (++stamp_ == 0) {  // wrapped: old stamps could alias the new one
      std::fill(seen_.begin(), seen_.end(), 0);
      stamp_ = 1;
    }
    for (const std::uint32_t c : index_->prefix(i)) {
      for (const std::uint32_t j : index_->postings(c)) {
        if (j == i || seen_[j] == stamp_) continue;
        seen_[j] = stamp_;
        if (accept(static_cast<std::size_t>(j)) &&
            index_->verdict().lengths_compatible(ni, index_->norm(j))) {
          cand_.push_back(j);
        }
      }
    }
    return cand_;
  }

  /// collect(), then one batched intersection pass over `store` (rows
  /// indexed like the PrefixIndex), then emit(i, j, g) per candidate.
  template <typename Accept, typename Emit>
  void score(std::size_t i, const linalg::RowStore& store, Accept&& accept, Emit&& emit) {
    const std::span<const std::uint32_t> cand = collect(i, accept);
    g_.resize(cand.size());
    store.intersection_gather(i, cand, g_.data());
    for (std::size_t k = 0; k < cand.size(); ++k) emit(i, static_cast<std::size_t>(cand[k]), g_[k]);
  }

 private:
  const PrefixIndex* index_;
  std::vector<std::uint32_t> seen_;  ///< seen_[j] == stamp_: j met in this call
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> cand_;
  std::vector<std::size_t> g_;
};

}  // namespace rolediet::core::methods
