// Density-adaptive row-kernel interface over the dense and sparse matrices.
//
// Every detection method ultimately runs the same handful of row kernels —
// Hamming distance, co-occurrence (intersection), equality, popcount, hash.
// BitMatrix serves them word-parallel (XOR/AND + popcount over packed words);
// CsrMatrix serves them as sorted-merge scans over the stored column indices,
// never materializing a dense row. At the paper's real-org scale (§III-B:
// ~50k roles x ~90k users, <1% dense) a packed RUAM row costs ~11 KB of
// mostly zeros per distance evaluation, while the CSR row touches only the
// few hundred stored indices — the sparse path wins exactly where the paper
// says real data lives.
//
// RowStore is a non-owning *view* selecting one backend; the sparse backend
// runs the span-level merge kernels (csr_matrix.hpp) over the CsrMatrix's
// row_ptr/cols_idx arrays. All backends compute identical integer values for
// every kernel, so groups, reports, and FinderWorkStats are byte-identical
// whichever backend runs — the differential suite locks this down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "linalg/bit_matrix.hpp"
#include "linalg/csr_matrix.hpp"
#include "util/bitops.hpp"

namespace rolediet::linalg {

/// Which row-kernel backend a method should run on.
enum class RowBackend {
  kAuto,    ///< Pick by density: sparse below kSparseDensityThreshold.
  kDense,   ///< Force packed-word kernels over BitMatrix rows.
  kSparse,  ///< Force merge kernels over CsrMatrix index runs.
};

[[nodiscard]] std::string to_string(RowBackend backend);

/// Density below which kAuto resolves to the sparse backend. At density d a
/// merge kernel touches ~8*d*cols bytes per row pair versus cols/4 bytes for
/// the packed pair, so the byte break-even sits at d = 1/32; the threshold
/// stays a factor below that because merge steps cost more per byte than
/// word-parallel popcounts. Real-world UPA matrices are routinely <1% dense,
/// which lands them firmly on the sparse side.
inline constexpr double kSparseDensityThreshold = 0.01;

/// Resolves a requested backend: kDense/kSparse pass through, kAuto picks by
/// the matrix density nnz / (rows * cols). Empty matrices resolve sparse.
[[nodiscard]] RowBackend choose_backend(RowBackend requested, std::size_t rows, std::size_t cols,
                                        std::size_t nnz) noexcept;

class RowStore {
 public:
  /// Empty view (0x0, dense). Reassign before use.
  RowStore() = default;

  /// View over a dense matrix. Non-owning: `dense` must outlive the view.
  RowStore(const BitMatrix& dense) noexcept : dense_(&dense) {}  // NOLINT(google-explicit-constructor)

  /// View over a sparse matrix. Non-owning: `sparse` must outlive the view.
  /// Reads go through the pointer on every access, so the view stays valid
  /// across mutations of the matrix (the HNSW artifact copy-assigns its
  /// points matrix under a live index view and relies on this).
  RowStore(const CsrMatrix& sparse) noexcept : sparse_(&sparse) {}  // NOLINT(google-explicit-constructor)

  // A view over a temporary would dangle immediately.
  RowStore(BitMatrix&&) = delete;
  RowStore(CsrMatrix&&) = delete;

  [[nodiscard]] bool is_sparse() const noexcept { return sparse_ != nullptr; }

  [[nodiscard]] std::size_t rows() const noexcept {
    return dense_ != nullptr ? dense_->rows() : sview().rows();
  }

  [[nodiscard]] std::size_t cols() const noexcept {
    return dense_ != nullptr ? dense_->cols() : sview().cols;
  }

  /// Role norm |R^r|: popcount (dense) or stored-entry count (sparse, O(1)).
  [[nodiscard]] std::size_t row_size(std::size_t r) const noexcept {
    return dense_ != nullptr ? dense_->row_popcount(r) : sview().row_size(r);
  }

  /// Hamming distance between rows a and b.
  [[nodiscard]] std::size_t hamming(std::size_t a, std::size_t b) const noexcept {
    if (dense_ != nullptr) return dense_->row_hamming(a, b);
    const CsrView v = sview();
    return v.row_size(a) + v.row_size(b) - 2 * csr_intersection(v.row(a), v.row(b));
  }

  /// BOUNDED Hamming distance (util::hamming_words_bounded contract): the
  /// exact distance when <= `limit`, exactly `limit + 1` otherwise — callers
  /// may only compare the result against `limit`. Both backends and every
  /// kernel dispatch target return the same normalized values.
  [[nodiscard]] std::size_t hamming_bounded(std::size_t a, std::size_t b,
                                            std::size_t limit) const noexcept;

  /// Co-occurrence count g(Ra, Rb).
  [[nodiscard]] std::size_t intersection(std::size_t a, std::size_t b) const noexcept {
    if (dense_ != nullptr) return dense_->row_intersection(a, b);
    const CsrView v = sview();
    return csr_intersection(v.row(a), v.row(b));
  }

  [[nodiscard]] bool rows_equal(std::size_t a, std::size_t b) const noexcept {
    if (dense_ != nullptr) return dense_->rows_equal(a, b);
    const CsrView v = sview();
    return csr_rows_equal(v.row(a), v.row(b));
  }

  /// Backend-invariant 64-bit digest of row r's column *set* (the CsrMatrix
  /// fold over sorted indices; the dense path walks set bits in the same
  /// order). BitMatrix::row_hash folds packed words instead and would give a
  /// different digest, so RowStore deliberately does not delegate to it.
  [[nodiscard]] std::uint64_t row_hash(std::size_t r) const noexcept;

  // ---- Batch entry points (SIMD-dispatched on the dense backend) ----------
  //
  // Score row q against many rows per call. On the dense backend these feed
  // the active linalg/kernels dispatch target: block variants hand the
  // kernel a contiguous [first, first + count) slab of packed rows so it can
  // register-tile them against the query; gather variants amortize the
  // dispatch-table lookup over an arbitrary index list. On the sparse
  // backend they loop the merge kernels. All variants produce exactly the
  // integers the corresponding single-pair kernel produces.

  /// out[k] = hamming(q, first + k) for k in [0, count).
  void hamming_block(std::size_t q, std::size_t first, std::size_t count,
                     std::size_t* out) const noexcept;

  /// out[k] = hamming_bounded(q, first + k, limit) for k in [0, count),
  /// under the bounded contract (exact when <= limit, limit + 1 otherwise).
  void hamming_bounded_block(std::size_t q, std::size_t first, std::size_t count,
                             std::size_t limit, std::size_t* out) const noexcept;

  /// out[k] = intersection(q, first + k) for k in [0, count).
  void intersection_block(std::size_t q, std::size_t first, std::size_t count,
                          std::size_t* out) const noexcept;

  /// out[k] = hamming(q, idx[k]) for k in [0, idx.size()).
  void hamming_gather(std::size_t q, std::span<const std::uint32_t> idx,
                      std::size_t* out) const noexcept;

  /// out[k] = intersection(q, idx[k]) for k in [0, idx.size()).
  void intersection_gather(std::size_t q, std::span<const std::uint32_t> idx,
                           std::size_t* out) const noexcept;

  /// out[k] = intersection(pairs[k].first, pairs[k].second): the gathered
  /// candidate-pair shape LSH verification produces, where both endpoints
  /// vary per element.
  void intersection_pairs(std::span<const std::pair<std::size_t, std::size_t>> pairs,
                          std::size_t* out) const noexcept;

  /// Calls `fn(col)` for every set column of row r in ascending order.
  template <typename Fn>
  void for_each_set(std::size_t r, Fn&& fn) const {
    if (dense_ == nullptr) {
      for (std::uint32_t c : sview().row(r)) fn(c);
      return;
    }
    const auto words = dense_->row(r);
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        fn(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(bit)));
        bits &= bits - 1;
      }
    }
  }

  /// Payload bytes a kernel streams when it scans row r once: packed words
  /// (dense) or stored indices (sparse). The density-sweep bench multiplies
  /// this by the evaluation count instead of instrumenting the hot path.
  [[nodiscard]] std::size_t row_bytes(std::size_t r) const noexcept {
    return dense_ != nullptr ? dense_->words_per_row() * sizeof(std::uint64_t)
                             : sview().row_size(r) * sizeof(std::uint32_t);
  }

  /// Total row-payload bytes across the store (excludes row_ptr overhead).
  [[nodiscard]] std::size_t payload_bytes() const noexcept;

  /// Intersection of a packed query vector (words_for_bits(cols()) words)
  /// with row b. Serves HNSW's search_vector on either backend.
  [[nodiscard]] std::size_t intersection_with_packed(std::span<const std::uint64_t> q,
                                                     std::size_t b) const noexcept;

  /// Hamming distance of a packed query vector against row b.
  [[nodiscard]] std::size_t hamming_with_packed(std::span<const std::uint64_t> q,
                                                std::size_t b) const noexcept;

  /// CSR copy of the viewed matrix (conversion when dense; an empty view
  /// gives the empty matrix). Lets consumers that are natively sparse
  /// (inverted indexes) run off any backend.
  [[nodiscard]] CsrMatrix to_csr() const;

  /// Underlying matrices; null for the backend not in use.
  [[nodiscard]] const BitMatrix* dense_matrix() const noexcept { return dense_; }
  [[nodiscard]] const CsrMatrix* sparse_matrix() const noexcept { return sparse_; }

 private:
  /// Sparse-shaped arrays, re-derived through the matrix pointer on every
  /// access (mutation-tolerant); empty spans without a sparse matrix.
  [[nodiscard]] CsrView sview() const noexcept {
    return sparse_ != nullptr ? sparse_->view() : CsrView{};
  }

  const BitMatrix* dense_ = nullptr;
  const CsrMatrix* sparse_ = nullptr;
};

}  // namespace rolediet::linalg
