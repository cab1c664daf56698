#include "core/methods/prefix_filter.hpp"

#include "cluster/metric.hpp"

namespace rolediet::core::methods {

std::size_t SimilarVerdict::distance(std::size_t na, std::size_t nb,
                                     std::size_t g) const noexcept {
  return jaccard_ ? cluster::jaccard_scaled_from_counts(na, nb, g) : na + nb - 2 * g;
}

std::size_t SimilarVerdict::prefix_length(std::size_t n) const noexcept {
  // min(n, t + 1), with t + 1 formed only when it cannot wrap to 0.
  if (!jaccard_) return threshold_ >= n ? n : threshold_ + 1;
  if (n == 0) return 0;
  // distance(n, n - m, n - m) is non-decreasing in m and 0 at m = 0: find
  // the largest m < n that stays within the threshold.
  std::size_t lo = 0;
  std::size_t hi = n - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (accepts(n, n - mid, n - mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo + 1;
}

void PrefixIndex::append_prefix(std::span<const std::uint32_t> cells,
                                std::span<const std::size_t> degrees,
                                std::vector<std::uint64_t>& keys) {
  const std::size_t p = verdict_.prefix_length(cells.size());
  if (p >= cells.size()) {
    prefix_cols_.insert(prefix_cols_.end(), cells.begin(), cells.end());
    return;
  }
  if (p == 0) return;  // a non-empty row always has p >= 1; the heap below needs it
  // The p smallest keys in one pass through a max-heap of size p; most keys
  // fail the first comparison against its top. Key = (degree, id) packed;
  // the low half keeps keys distinct per column.
  keys.clear();
  for (const std::uint32_t c : cells) {
    const std::uint64_t k = (std::uint64_t{degrees[c]} << 32) | c;
    if (keys.size() < p) {
      keys.push_back(k);
      std::push_heap(keys.begin(), keys.end());
    } else if (k < keys.front()) {
      std::pop_heap(keys.begin(), keys.end());
      keys.back() = k;
      std::push_heap(keys.begin(), keys.end());
    }
  }
  for (const std::uint64_t k : keys) prefix_cols_.push_back(static_cast<std::uint32_t>(k));
}

void PrefixIndex::build_postings(std::size_t cols) {
  // Counting sort of (column, row) by column, rows visited ascending: count
  // into post_ptr_[c + 1], turn counts into starts, fill through the starts
  // as cursors, then shift the cursors (now ends) back into starts.
  post_ptr_.assign(cols + 1, 0);
  for (const std::uint32_t c : prefix_cols_) ++post_ptr_[c + 1];
  for (std::size_t c = 0; c < cols; ++c) post_ptr_[c + 1] += post_ptr_[c];
  post_rows_.resize(prefix_cols_.size());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = prefix_ptr_[r]; k < prefix_ptr_[r + 1]; ++k) {
      post_rows_[post_ptr_[prefix_cols_[k]]++] = static_cast<std::uint32_t>(r);
    }
  }
  for (std::size_t c = cols; c > 0; --c) post_ptr_[c] = post_ptr_[c - 1];
  post_ptr_[0] = 0;
}

}  // namespace rolediet::core::methods
