// Distance metrics over packed binary row vectors.
//
// The paper's parameterization (§III-C):
//  - roles sharing the *same* users coincide in space, so any metric works
//    with eps = 0;
//  - roles sharing *similar* users need a metric that counts differing
//    coordinates — Hamming distance. On 0/1 vectors Manhattan (L1) distance
//    equals Hamming distance, which is why the paper's HNSW baseline uses
//    Manhattan; we expose both names over the same kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/row_store.hpp"
#include "util/bitops.hpp"

namespace rolediet::cluster {

enum class MetricKind {
  kHamming,    ///< number of differing coordinates
  kManhattan,  ///< L1; identical to Hamming on binary vectors
  kJaccard,    ///< 1 - |a∩b| / |a∪b|, scaled — see jaccard_scaled()
};

/// Hamming distance between packed rows.
[[nodiscard]] inline std::size_t hamming(std::span<const std::uint64_t> a,
                                         std::span<const std::uint64_t> b) noexcept {
  return util::hamming_words(a, b);
}

/// Fixed-point scale for Jaccard dissimilarity: distances are integers in
/// [0, kJaccardScale], where kJaccardScale means "disjoint sets".
inline constexpr std::size_t kJaccardScale = 1'000'000;

/// Jaccard dissimilarity from set sizes: kJaccardScale * (1 - g / union)
/// with union = |a| + |b| - g. Exposed so the sparse co-occurrence method
/// computes bit-identical values to the dense kernel below (both use the
/// same integer division).
[[nodiscard]] constexpr std::size_t jaccard_scaled_from_counts(std::size_t size_a,
                                                               std::size_t size_b,
                                                               std::size_t g) noexcept {
  const std::size_t uni = size_a + size_b - g;
  if (uni == 0) return 0;  // two empty sets are identical
  return kJaccardScale - (g * kJaccardScale) / uni;
}

/// Jaccard *dissimilarity* scaled to integer space over packed rows.
/// Integer-valued so all metrics share one comparison type.
[[nodiscard]] inline std::size_t jaccard_scaled(std::span<const std::uint64_t> a,
                                                std::span<const std::uint64_t> b) noexcept {
  const std::size_t inter = util::intersection_words(a, b);
  const std::size_t pop_a = util::popcount_span(a);
  const std::size_t pop_b = util::popcount_span(b);
  return jaccard_scaled_from_counts(pop_a, pop_b, inter);
}

/// Dispatches on the metric kind. Hamming and Manhattan share the kernel.
[[nodiscard]] inline std::size_t distance(MetricKind kind, std::span<const std::uint64_t> a,
                                          std::span<const std::uint64_t> b) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      return hamming(a, b);
    case MetricKind::kJaccard:
      return jaccard_scaled(a, b);
  }
  return 0;  // unreachable
}

/// Backend-neutral dispatch over RowStore rows. The sparse path derives
/// Jaccard from the same integer formula as jaccard_scaled(), so both
/// backends return bit-identical distances.
[[nodiscard]] inline std::size_t distance(MetricKind kind, const linalg::RowStore& rows,
                                          std::size_t a, std::size_t b) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      return rows.hamming(a, b);
    case MetricKind::kJaccard:
      return jaccard_scaled_from_counts(rows.row_size(a), rows.row_size(b),
                                        rows.intersection(a, b));
  }
  return 0;  // unreachable
}

/// BOUNDED threshold variant — the result is only comparable against
/// `limit`. For Hamming/Manhattan the kernel early-exits and returns exactly
/// `limit + 1` once the running distance exceeds the limit (the
/// RowStore::hamming_bounded contract); Jaccard has no cheap running bound
/// and computes the exact distance.
[[nodiscard]] inline std::size_t distance_bounded(MetricKind kind, const linalg::RowStore& rows,
                                                  std::size_t a, std::size_t b,
                                                  std::size_t limit) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      return rows.hamming_bounded(a, b, limit);
    case MetricKind::kJaccard:
      return jaccard_scaled_from_counts(rows.row_size(a), rows.row_size(b),
                                        rows.intersection(a, b));
  }
  return 0;  // unreachable
}

/// Batched distance_bounded over the contiguous rows [first, first + count):
/// out[k] = distance_bounded(kind, rows, a, first + k, limit), computed via
/// the SIMD-dispatched block kernels on the dense backend. Same bounded
/// contract (Hamming results past `limit` come back as limit + 1), same
/// integers as count single-pair calls on every backend and dispatch target.
inline void distance_bounded_block(MetricKind kind, const linalg::RowStore& rows, std::size_t a,
                                   std::size_t first, std::size_t count, std::size_t limit,
                                   std::size_t* out) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      rows.hamming_bounded_block(a, first, count, limit, out);
      return;
    case MetricKind::kJaccard: {
      // Jaccard derives from the batched co-occurrence counts; the division
      // is the same integer formula as the single-pair path.
      rows.intersection_block(a, first, count, out);
      const std::size_t na = rows.row_size(a);
      for (std::size_t k = 0; k < count; ++k)
        out[k] = jaccard_scaled_from_counts(na, rows.row_size(first + k), out[k]);
      return;
    }
  }
}

/// Batched distance over a gathered index list: out[k] = distance(kind,
/// rows, a, idx[k]). Amortizes the kernel dispatch-table fetch over the
/// list; identical integers to idx.size() single-pair calls.
inline void distance_gather(MetricKind kind, const linalg::RowStore& rows, std::size_t a,
                            std::span<const std::uint32_t> idx, std::size_t* out) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      rows.hamming_gather(a, idx, out);
      return;
    case MetricKind::kJaccard: {
      rows.intersection_gather(a, idx, out);
      const std::size_t na = rows.row_size(a);
      for (std::size_t k = 0; k < idx.size(); ++k)
        out[k] = jaccard_scaled_from_counts(na, rows.row_size(idx[k]), out[k]);
      return;
    }
  }
}

/// Distance from a packed query vector (util::words_for_bits(rows.cols())
/// words) to a stored row — the out-of-index query path (HNSW search_vector).
[[nodiscard]] inline std::size_t distance_to_packed(MetricKind kind, const linalg::RowStore& rows,
                                                    std::span<const std::uint64_t> q,
                                                    std::size_t b) noexcept {
  switch (kind) {
    case MetricKind::kHamming:
    case MetricKind::kManhattan:
      return rows.hamming_with_packed(q, b);
    case MetricKind::kJaccard:
      return jaccard_scaled_from_counts(util::popcount_span(q), rows.row_size(b),
                                        rows.intersection_with_packed(q, b));
  }
  return 0;  // unreachable
}

}  // namespace rolediet::cluster
