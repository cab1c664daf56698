#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/prng.hpp"

namespace rolediet::linalg {

std::size_t csr_intersection(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b) noexcept {
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

bool csr_rows_equal(std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) noexcept {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::uint64_t csr_row_digest(std::span<const std::uint32_t> row) noexcept {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (std::uint32_t c : row) {
    h ^= util::mix64(static_cast<std::uint64_t>(c) + 0x9E3779B97F4A7C15ULL);
    h *= 0x100000001B3ULL;
  }
  // Fold the length so prefix sets do not collide trivially.
  h ^= util::mix64(row.size());
  return h;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix CsrMatrix::from_pairs(std::size_t rows, std::size_t cols,
                                std::span<const Entry> pairs) {
  for (const auto& [r, c] : pairs) {
    if (r >= rows || c >= cols)
      throw std::out_of_range("CsrMatrix::from_pairs: entry (" + std::to_string(r) + ", " +
                              std::to_string(c) + ") outside " + std::to_string(rows) + "x" +
                              std::to_string(cols));
  }
  CsrMatrix m(rows, cols);
  // Counting sort by row: row r's columns land in [row_ptr[r], row_ptr[r+1])
  // in input order.
  for (const auto& [r, c] : pairs) ++m.row_ptr_[r + 1];
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.cols_idx_.resize(pairs.size());
  {
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (const auto& [r, c] : pairs) m.cols_idx_[cursor[r]++] = c;
  }
  // Sort and deduplicate each row, compacting the rows toward the front.
  const auto at = [&m](std::size_t k) {
    return m.cols_idx_.begin() + static_cast<std::ptrdiff_t>(k);
  };
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto begin = at(m.row_ptr_[r]);
    const auto end = at(m.row_ptr_[r + 1]);
    std::sort(begin, end);
    const auto unique_end = std::unique(begin, end);
    if (kept != m.row_ptr_[r]) std::copy(begin, unique_end, at(kept));  // kept < row start
    m.row_ptr_[r] = kept;
    kept += static_cast<std::size_t>(unique_end - begin);
  }
  m.row_ptr_[rows] = kept;
  if (kept < m.cols_idx_.size()) {
    m.cols_idx_.resize(kept);
    m.cols_idx_.shrink_to_fit();
  }
  return m;
}

CsrMatrix CsrMatrix::from_csr(std::size_t cols, std::vector<std::size_t> row_ptr,
                              std::vector<std::uint32_t> cols_idx) {
  if (row_ptr.empty() || row_ptr.front() != 0 || row_ptr.back() != cols_idx.size())
    throw std::invalid_argument("CsrMatrix::from_csr: row_ptr does not frame the index array");
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1])
      throw std::invalid_argument("CsrMatrix::from_csr: row_ptr not monotone at row " +
                                  std::to_string(r));
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (cols_idx[k] >= cols || (k > row_ptr[r] && cols_idx[k - 1] >= cols_idx[k]))
        throw std::invalid_argument("CsrMatrix::from_csr: row " + std::to_string(r) +
                                    " is not strictly increasing within bounds");
    }
  }
  CsrMatrix m;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.cols_idx_ = std::move(cols_idx);
  return m;
}

bool CsrMatrix::get(std::size_t r, std::size_t c) const noexcept {
  const auto cells = row(r);
  return std::binary_search(cells.begin(), cells.end(), static_cast<std::uint32_t>(c));
}

std::size_t CsrMatrix::row_intersection(std::size_t a, std::size_t b) const noexcept {
  return csr_intersection(row(a), row(b));
}

bool CsrMatrix::rows_equal(std::size_t a, std::size_t b) const noexcept {
  return csr_rows_equal(row(a), row(b));
}

std::uint64_t CsrMatrix::row_hash(std::size_t r) const noexcept { return csr_row_digest(row(r)); }

CsrMatrix CsrMatrix::gather_rows(const CsrMatrix& source, std::span<const std::size_t> selected) {
  CsrMatrix out(selected.size(), source.cols());
  std::size_t total = 0;
  for (std::size_t r : selected) total += source.row_size(r);
  out.cols_idx_.reserve(total);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const auto cells = source.row(selected[i]);
    out.cols_idx_.insert(out.cols_idx_.end(), cells.begin(), cells.end());
    out.row_ptr_[i + 1] = out.cols_idx_.size();
  }
  return out;
}

std::vector<std::size_t> CsrMatrix::column_sums() const {
  std::vector<std::size_t> sums(cols_, 0);
  for (std::uint32_t c : cols_idx_) sums[c] += 1;
  return sums;
}

std::vector<std::size_t> CsrMatrix::row_sums() const {
  std::vector<std::size_t> sums(rows());
  for (std::size_t r = 0; r < rows(); ++r) sums[r] = row_size(r);
  return sums;
}

CsrMatrix CsrMatrix::transpose() const {
  const std::size_t n_rows = rows();
  CsrMatrix t(cols_, n_rows);
  t.cols_idx_.resize(nnz());

  // Counting pass: entries per output row (= input column).
  std::vector<std::size_t> counts(cols_, 0);
  for (std::uint32_t c : cols_idx_) counts[c] += 1;
  for (std::size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] = t.row_ptr_[c] + counts[c];

  // Scatter pass; input rows are visited in increasing order, so the column
  // indices written into each output row come out already sorted.
  std::vector<std::size_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::uint32_t c : row(r)) {
      t.cols_idx_[cursor[c]++] = static_cast<std::uint32_t>(r);
    }
  }
  return t;
}

}  // namespace rolediet::linalg
