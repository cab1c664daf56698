// Sparse boolean matrix in Compressed Sparse Row form.
//
// Real-world RUAM/RPAM matrices are extremely sparse (the paper's real org
// has ~50,000 roles x ~90,000 users but each role carries only a handful of
// users), so the framework stores assignments sparsely and only densifies
// when a method needs packed rows (DBSCAN/HNSW distance kernels on small
// synthetic matrices). §III-B explicitly calls out sparse representation as
// the memory optimization for the two sub-matrices.
//
// Invariants:
//  - row_ptr.size() == rows()+1, row_ptr.front() == 0, row_ptr.back() == nnz;
//  - column indices within each row are strictly increasing (set semantics —
//    duplicate assignment edges collapse to one entry);
//  - every column index < cols().
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace rolediet::linalg {

// ---- span-level CSR row kernels --------------------------------------------
//
// The merge kernels over sorted index runs, factored out of CsrMatrix so any
// sorted-row storage — an owning CsrMatrix, core::IncrementalAuditor's
// per-role rows — computes the same integers through the same code.
// CsrMatrix and RowStore's sparse backend both delegate here.

/// Co-occurrence count |a ∩ b| of two strictly-increasing index runs.
[[nodiscard]] std::size_t csr_intersection(std::span<const std::uint32_t> a,
                                           std::span<const std::uint32_t> b) noexcept;

/// Exact set equality of two strictly-increasing index runs.
[[nodiscard]] bool csr_rows_equal(std::span<const std::uint32_t> a,
                                  std::span<const std::uint32_t> b) noexcept;

/// 64-bit digest of a strictly-increasing index run (the CsrMatrix::row_hash
/// fold: order-sensitive over the sorted indices + length, so equal sets hash
/// equal on every storage backend).
[[nodiscard]] std::uint64_t csr_row_digest(std::span<const std::uint32_t> row) noexcept;

/// Non-owning view of CSR arrays: the storage-agnostic face of a sparse
/// boolean matrix. Everything RowStore's sparse kernels need — row extents
/// and sorted column indices — without requiring the arrays to live in a
/// CsrMatrix's vectors; the mmap'd store body (store/body.hpp) exposes its
/// rows in exactly this shape. Invariants mirror CsrMatrix (see file
/// comment), except that a body's rows are validated only when copied into
/// a CsrMatrix.
struct CsrView {
  std::span<const std::size_t> row_ptr;     ///< rows()+1 offsets, front()==0
  std::span<const std::uint32_t> cols_idx;  ///< nnz sorted-per-row indices
  std::size_t cols = 0;

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return cols_idx.size(); }
  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const noexcept {
    return cols_idx.subspan(row_ptr[r], row_ptr[r + 1] - row_ptr[r]);
  }
  [[nodiscard]] std::size_t row_size(std::size_t r) const noexcept {
    return row_ptr[r + 1] - row_ptr[r];
  }
};

class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// rows x cols matrix with no stored entries.
  CsrMatrix(std::size_t rows, std::size_t cols);

  using Entry = std::pair<std::uint32_t, std::uint32_t>;  ///< (row, col)

  /// Builds from (row, col) pairs, read in place. Duplicates are collapsed;
  /// an out-of-range pair throws std::out_of_range naming the first one in
  /// input order. The input need not be sorted. O(rows + nnz) plus a sort
  /// of each row: a counting pass buckets the columns by row, then each
  /// row is sorted and deduplicated where it lies.
  [[nodiscard]] static CsrMatrix from_pairs(std::size_t rows, std::size_t cols,
                                            std::span<const Entry> pairs);
  /// The same from a braced list of pairs.
  [[nodiscard]] static CsrMatrix from_pairs(std::size_t rows, std::size_t cols,
                                            std::initializer_list<Entry> pairs) {
    return from_pairs(rows, cols, std::span<const Entry>(pairs.begin(), pairs.size()));
  }

  /// Adopts already-built CSR arrays (row_ptr.size() == rows+1, sorted unique
  /// indices per row). Validates the structural invariants and throws
  /// std::invalid_argument on violation — the O(rows + nnz) check is cheap
  /// next to anything a caller will do with the matrix.
  [[nodiscard]] static CsrMatrix from_csr(std::size_t cols, std::vector<std::size_t> row_ptr,
                                          std::vector<std::uint32_t> cols_idx);

  /// Non-owning view of this matrix's arrays (valid until the next mutation).
  [[nodiscard]] CsrView view() const noexcept { return {row_ptr_, cols_idx_, cols_}; }

  [[nodiscard]] std::size_t rows() const noexcept { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return cols_idx_.size(); }

  /// Column indices of row r, strictly increasing.
  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const noexcept {
    return {cols_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Number of stored entries in row r — the role norm |R^i|.
  [[nodiscard]] std::size_t row_size(std::size_t r) const noexcept {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// Membership test via binary search: O(log row_size).
  [[nodiscard]] bool get(std::size_t r, std::size_t c) const noexcept;

  /// Co-occurrence count g(Ra, Rb) via sorted-merge intersection.
  [[nodiscard]] std::size_t row_intersection(std::size_t a, std::size_t b) const noexcept;

  /// Hamming distance between rows a and b: |Ra| + |Rb| - 2 g(Ra, Rb).
  [[nodiscard]] std::size_t row_hamming(std::size_t a, std::size_t b) const noexcept {
    const std::size_t g = row_intersection(a, b);
    return row_size(a) + row_size(b) - 2 * g;
  }

  /// True when rows a and b store identical column sets.
  [[nodiscard]] bool rows_equal(std::size_t a, std::size_t b) const noexcept;

  /// 64-bit digest of row r's column set (order-sensitive fold of the sorted
  /// indices, so equal sets hash equal).
  [[nodiscard]] std::uint64_t row_hash(std::size_t r) const noexcept;

  /// Per-column entry counts (degree of each user/permission node).
  [[nodiscard]] std::vector<std::size_t> column_sums() const;

  /// Per-row entry counts.
  [[nodiscard]] std::vector<std::size_t> row_sums() const;

  /// Transpose (cols x rows). Used to build the inverted user -> roles index
  /// that drives the co-occurrence method.
  [[nodiscard]] CsrMatrix transpose() const;

  /// Copies the listed source rows (in the given order) into a new matrix
  /// with the same column count — the sparse counterpart of densifying a
  /// row selection. Preconditions: every listed row < source.rows().
  [[nodiscard]] static CsrMatrix gather_rows(const CsrMatrix& source,
                                             std::span<const std::size_t> selected);

  /// Raw CSR arrays, for algorithms that iterate the structure directly.
  [[nodiscard]] std::span<const std::size_t> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const noexcept { return cols_idx_; }

  [[nodiscard]] bool operator==(const CsrMatrix& other) const noexcept = default;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::uint32_t> cols_idx_;
};

}  // namespace rolediet::linalg
