// Unit tests for the sparse CSR matrix and dense<->sparse conversions.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "linalg/convert.hpp"
#include "linalg/csr_matrix.hpp"
#include "util/prng.hpp"

namespace rolediet::linalg {
namespace {

CsrMatrix sample() {
  // 4x6:
  //   row 0: {1, 3, 5}
  //   row 1: {}               (empty role)
  //   row 2: {1, 3, 5}        (duplicate of row 0)
  //   row 3: {0, 1}
  return CsrMatrix::from_pairs(
      4, 6, {{0, 3}, {0, 1}, {0, 5}, {2, 5}, {2, 1}, {2, 3}, {3, 0}, {3, 1}});
}

TEST(CsrMatrix, DefaultIsEmpty) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(CsrMatrix, FromPairsSortsWithinRows) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
  EXPECT_EQ(m.nnz(), 8u);
  const auto r0 = m.row(0);
  ASSERT_EQ(r0.size(), 3u);
  EXPECT_EQ(r0[0], 1u);
  EXPECT_EQ(r0[1], 3u);
  EXPECT_EQ(r0[2], 5u);
  EXPECT_EQ(m.row_size(1), 0u);
}

TEST(CsrMatrix, FromPairsCollapsesDuplicates) {
  const CsrMatrix m = CsrMatrix::from_pairs(1, 4, {{0, 2}, {0, 2}, {0, 2}, {0, 1}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row_size(0), 2u);
}

TEST(CsrMatrix, FromPairsRejectsOutOfRange) {
  EXPECT_THROW(CsrMatrix::from_pairs(2, 2, {{2, 0}}), std::out_of_range);
  EXPECT_THROW(CsrMatrix::from_pairs(2, 2, {{0, 2}}), std::out_of_range);
}

/// The sort-based construction from_pairs used before its row-bucketed
/// form: sort every pair, drop repeats, cut the list into rows.
CsrMatrix from_pairs_by_sort(std::size_t rows, std::size_t cols,
                             std::vector<CsrMatrix::Entry> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  std::vector<std::uint32_t> cols_idx;
  for (const auto& [r, c] : pairs) {
    ++row_ptr[r + 1];
    cols_idx.push_back(c);
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  return CsrMatrix::from_csr(cols, std::move(row_ptr), std::move(cols_idx));
}

TEST(CsrMatrix, FromPairsEqualsTheSortBasedForm) {
  // Unsorted input with repeats, empty rows (including the first and last),
  // a row holding one column many times, and shapes down to 0 x 0.
  util::Xoshiro256 rng(0xC5A);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t rows = rng.bounded(12);
    const std::size_t cols = 1 + rng.bounded(40);
    std::vector<CsrMatrix::Entry> pairs;
    const std::size_t n = rows == 0 ? 0 : rng.bounded(4 * rows * 3);
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = static_cast<std::uint32_t>(rng.bounded(rows));
      if (r % 3 == 1) continue;  // every third row stays empty
      // Odd trials crowd each row into three columns: many repeats.
      const auto c = static_cast<std::uint32_t>(
          rng.bounded(trial % 2 == 0 ? cols : std::min<std::size_t>(cols, 3)));
      pairs.emplace_back(r, c);
      if (rng.bounded(4) == 0) pairs.emplace_back(r, c);  // repeat
    }
    const CsrMatrix bucketed = CsrMatrix::from_pairs(rows, cols, pairs);
    EXPECT_EQ(bucketed, from_pairs_by_sort(rows, cols, pairs)) << "trial " << trial;
    EXPECT_EQ(bucketed.col_idx().size(), bucketed.nnz());
  }
}

TEST(CsrMatrix, FromPairsNamesTheFirstOutOfRangeEntry) {
  const std::vector<CsrMatrix::Entry> pairs = {{0, 1}, {1, 7}, {5, 0}, {1, 1}};
  try {
    (void)CsrMatrix::from_pairs(2, 3, pairs);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "CsrMatrix::from_pairs: entry (1, 7) outside 2x3");
  }
  EXPECT_THROW((void)CsrMatrix::from_pairs(0, 0, {{0, 0}}), std::out_of_range);
  EXPECT_EQ(CsrMatrix::from_pairs(0, 0, std::span<const CsrMatrix::Entry>()), CsrMatrix(0, 0));
}

TEST(CsrMatrix, Get) {
  const CsrMatrix m = sample();
  EXPECT_TRUE(m.get(0, 3));
  EXPECT_FALSE(m.get(0, 2));
  EXPECT_FALSE(m.get(1, 0));
  EXPECT_TRUE(m.get(3, 0));
}

TEST(CsrMatrix, RowIntersection) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.row_intersection(0, 2), 3u);  // identical rows
  EXPECT_EQ(m.row_intersection(0, 3), 1u);  // share column 1
  EXPECT_EQ(m.row_intersection(0, 1), 0u);  // empty row
}

TEST(CsrMatrix, RowHammingViaSetIdentity) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.row_hamming(0, 2), 0u);
  EXPECT_EQ(m.row_hamming(0, 3), 3u + 2u - 2u);  // |A|+|B|-2g = 3
  EXPECT_EQ(m.row_hamming(0, 1), 3u);            // vs empty row
}

TEST(CsrMatrix, RowsEqual) {
  const CsrMatrix m = sample();
  EXPECT_TRUE(m.rows_equal(0, 2));
  EXPECT_FALSE(m.rows_equal(0, 3));
  EXPECT_TRUE(m.rows_equal(1, 1));
}

TEST(CsrMatrix, RowHashMatchesEquality) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.row_hash(0), m.row_hash(2));
  EXPECT_NE(m.row_hash(0), m.row_hash(3));
}

TEST(CsrMatrix, ColumnSums) {
  const CsrMatrix m = sample();
  const auto sums = m.column_sums();
  EXPECT_EQ(sums, (std::vector<std::size_t>{1, 3, 0, 2, 0, 2}));
}

TEST(CsrMatrix, RowSums) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.row_sums(), (std::vector<std::size_t>{3, 0, 3, 2}));
}

TEST(CsrMatrix, TransposeShapeAndContent) {
  const CsrMatrix m = sample();
  const CsrMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.nnz(), m.nnz());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(m.get(r, c), t.get(c, r)) << "(" << r << ", " << c << ")";
    }
  }
}

TEST(CsrMatrix, TransposeRowsAreSorted) {
  const CsrMatrix t = sample().transpose();
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const auto row = t.row(r);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(CsrMatrix, DoubleTransposeIsIdentity) {
  const CsrMatrix m = sample();
  EXPECT_EQ(m.transpose().transpose(), m);
}

TEST(CsrMatrix, EmptyMatrixTranspose) {
  const CsrMatrix m(3, 5);
  const CsrMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.nnz(), 0u);
}

// ---------------------------------------------------------- conversions ---

TEST(Convert, DenseRoundTrip) {
  const CsrMatrix m = sample();
  const BitMatrix dense = to_dense(m);
  EXPECT_EQ(dense.rows(), m.rows());
  EXPECT_EQ(dense.cols(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(dense.get(r, c), m.get(r, c));
    }
  }
  EXPECT_EQ(to_sparse(dense), m);
}

TEST(Convert, WideMatrixRoundTrip) {
  // Columns spanning several words exercise the bit packing.
  CsrMatrix m = CsrMatrix::from_pairs(2, 300, {{0, 0}, {0, 63}, {0, 64}, {0, 299}, {1, 128}});
  const BitMatrix dense = to_dense(m);
  EXPECT_TRUE(dense.get(0, 299));
  EXPECT_TRUE(dense.get(1, 128));
  EXPECT_EQ(dense.row_popcount(0), 4u);
  EXPECT_EQ(to_sparse(dense), m);
}

TEST(Convert, EmptyMatrices) {
  const CsrMatrix m(0, 0);
  EXPECT_EQ(to_dense(m).rows(), 0u);
  const BitMatrix dense(4, 10);
  const CsrMatrix sparse = to_sparse(dense);
  EXPECT_EQ(sparse.rows(), 4u);
  EXPECT_EQ(sparse.nnz(), 0u);
}

}  // namespace
}  // namespace rolediet::linalg
