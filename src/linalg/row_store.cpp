#include "linalg/row_store.hpp"

#include "linalg/convert.hpp"
#include "linalg/kernels/kernels.hpp"
#include "util/prng.hpp"

namespace rolediet::linalg {

std::string to_string(RowBackend backend) {
  switch (backend) {
    case RowBackend::kAuto:
      return "auto";
    case RowBackend::kDense:
      return "dense";
    case RowBackend::kSparse:
      return "sparse";
  }
  return "?";
}

RowBackend choose_backend(RowBackend requested, std::size_t rows, std::size_t cols,
                          std::size_t nnz) noexcept {
  if (requested != RowBackend::kAuto) return requested;
  const std::size_t cells = rows * cols;
  if (cells == 0) return RowBackend::kSparse;
  const double density = static_cast<double>(nnz) / static_cast<double>(cells);
  return density < kSparseDensityThreshold ? RowBackend::kSparse : RowBackend::kDense;
}

std::size_t RowStore::hamming_bounded(std::size_t a, std::size_t b,
                                      std::size_t limit) const noexcept {
  if (dense_ != nullptr) return dense_->row_hamming_bounded(a, b, limit);
  // Merge the two sorted index runs counting symmetric-difference entries;
  // the over-limit return is normalized to limit + 1 (the bounded contract,
  // util::hamming_words_bounded) so the raw values — not just the verdicts —
  // match the dense backend and every kernel dispatch target.
  const CsrView v = sview();
  const auto ra = v.row(a);
  const auto rb = v.row(b);
  std::size_t diff = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ra.size() && j < rb.size()) {
    if (ra[i] < rb[j]) {
      ++i;
      ++diff;
    } else if (ra[i] > rb[j]) {
      ++j;
      ++diff;
    } else {
      ++i;
      ++j;
    }
    if (diff > limit) return limit + 1;
  }
  diff += (ra.size() - i) + (rb.size() - j);
  return diff > limit ? limit + 1 : diff;
}

void RowStore::hamming_block(std::size_t q, std::size_t first, std::size_t count,
                             std::size_t* out) const noexcept {
  if (count == 0) return;
  if (dense_ != nullptr) {
    // BitMatrix rows are contiguous at a fixed word stride, so the block is
    // one slab the kernel can register-tile against the query.
    const auto& ops = kernels::active();
    ops.hamming_block(dense_->row(q).data(), dense_->row(first).data(),
                      dense_->words_per_row(), count, dense_->words_per_row(), out);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) out[k] = hamming(q, first + k);
}

void RowStore::hamming_bounded_block(std::size_t q, std::size_t first, std::size_t count,
                                     std::size_t limit, std::size_t* out) const noexcept {
  if (count == 0) return;
  if (dense_ != nullptr) {
    const auto& ops = kernels::active();
    ops.hamming_bounded_block(dense_->row(q).data(), dense_->row(first).data(),
                              dense_->words_per_row(), count, dense_->words_per_row(), limit,
                              out);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) out[k] = hamming_bounded(q, first + k, limit);
}

void RowStore::intersection_block(std::size_t q, std::size_t first, std::size_t count,
                                  std::size_t* out) const noexcept {
  if (count == 0) return;
  if (dense_ != nullptr) {
    const auto& ops = kernels::active();
    ops.intersection_block(dense_->row(q).data(), dense_->row(first).data(),
                           dense_->words_per_row(), count, dense_->words_per_row(), out);
    return;
  }
  const CsrView v = sview();
  for (std::size_t k = 0; k < count; ++k) out[k] = csr_intersection(v.row(q), v.row(first + k));
}

void RowStore::hamming_gather(std::size_t q, std::span<const std::uint32_t> idx,
                              std::size_t* out) const noexcept {
  if (dense_ != nullptr) {
    const auto& ops = kernels::active();
    const auto qr = dense_->row(q);
    const std::size_t n = dense_->words_per_row();
    for (std::size_t k = 0; k < idx.size(); ++k)
      out[k] = ops.hamming(qr.data(), dense_->row(idx[k]).data(), n);
    return;
  }
  for (std::size_t k = 0; k < idx.size(); ++k) out[k] = hamming(q, idx[k]);
}

void RowStore::intersection_gather(std::size_t q, std::span<const std::uint32_t> idx,
                                   std::size_t* out) const noexcept {
  if (dense_ != nullptr) {
    const auto& ops = kernels::active();
    const auto qr = dense_->row(q);
    const std::size_t n = dense_->words_per_row();
    for (std::size_t k = 0; k < idx.size(); ++k)
      out[k] = ops.intersection(qr.data(), dense_->row(idx[k]).data(), n);
    return;
  }
  const CsrView v = sview();
  const auto qr = v.row(q);
  for (std::size_t k = 0; k < idx.size(); ++k) out[k] = csr_intersection(qr, v.row(idx[k]));
}

void RowStore::intersection_pairs(std::span<const std::pair<std::size_t, std::size_t>> pairs,
                                  std::size_t* out) const noexcept {
  if (dense_ != nullptr) {
    const auto& ops = kernels::active();
    const std::size_t n = dense_->words_per_row();
    for (std::size_t k = 0; k < pairs.size(); ++k)
      out[k] = ops.intersection(dense_->row(pairs[k].first).data(),
                                dense_->row(pairs[k].second).data(), n);
    return;
  }
  const CsrView v = sview();
  for (std::size_t k = 0; k < pairs.size(); ++k)
    out[k] = csr_intersection(v.row(pairs[k].first), v.row(pairs[k].second));
}

std::uint64_t RowStore::row_hash(std::size_t r) const noexcept {
  if (dense_ == nullptr) return csr_row_digest(sview().row(r));
  // Same fold as CsrMatrix::row_hash over the set bits in ascending order,
  // so digests agree across backends.
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  std::size_t count = 0;
  for_each_set(r, [&](std::uint32_t c) {
    h ^= util::mix64(static_cast<std::uint64_t>(c) + 0x9E3779B97F4A7C15ULL);
    h *= 0x100000001B3ULL;
    ++count;
  });
  h ^= util::mix64(count);
  return h;
}

std::size_t RowStore::payload_bytes() const noexcept {
  if (dense_ != nullptr) return dense_->rows() * dense_->words_per_row() * sizeof(std::uint64_t);
  return sview().nnz() * sizeof(std::uint32_t);
}

std::size_t RowStore::intersection_with_packed(std::span<const std::uint64_t> q,
                                               std::size_t b) const noexcept {
  if (dense_ != nullptr) return util::intersection_words(q, dense_->row(b));
  std::size_t count = 0;
  for (std::uint32_t c : sview().row(b)) {
    count += (q[c / 64] >> (c % 64)) & 1U;
  }
  return count;
}

std::size_t RowStore::hamming_with_packed(std::span<const std::uint64_t> q,
                                          std::size_t b) const noexcept {
  if (dense_ != nullptr) return util::hamming_words(q, dense_->row(b));
  const std::size_t g = intersection_with_packed(q, b);
  return util::popcount_span(q) + sview().row_size(b) - 2 * g;
}

CsrMatrix RowStore::to_csr() const {
  if (sparse_ != nullptr) return *sparse_;
  if (dense_ != nullptr) return to_sparse(*dense_);
  return {};
}

}  // namespace rolediet::linalg
