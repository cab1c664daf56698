// Parity and dispatch tests for the SIMD kernel layer (linalg/kernels).
//
// The layer's whole contract is "identical integers on every dispatch
// target", so the core of this suite is randomized scalar-vs-target parity
// over every kernel op, every host-available ISA, and word spans chosen to
// hit vector-width boundaries (1..40 words covers sub-lane, exact-lane, and
// tail cases for 2/4/8-word lanes). Tail-word semantics are exercised via
// util::tail_mask the way BitMatrix builds rows: bits past cols() are zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/bit_matrix.hpp"
#include "linalg/convert.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/row_store.hpp"
#include "util/bitops.hpp"

namespace {

using rolediet::linalg::BitMatrix;
using rolediet::linalg::RowStore;
namespace kernels = rolediet::linalg::kernels;
using kernels::KernelIsa;

/// Restores the entry active target (auto-resolution) when a test forces one.
struct ScopedKernelIsa {
  explicit ScopedKernelIsa(KernelIsa isa) { kernels::set_active_isa(isa); }
  ~ScopedKernelIsa() { kernels::set_active_isa(KernelIsa::kAuto); }
};

std::vector<KernelIsa> host_isas() {
  std::vector<KernelIsa> isas{KernelIsa::kScalar};
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512, KernelIsa::kNeon})
    if (kernels::isa_supported(isa)) isas.push_back(isa);
  return isas;
}

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

// ---- Randomized scalar-vs-target parity over every op ----------------------

TEST(KernelParity, AllOpsMatchScalarOnEveryHostIsa) {
  const auto& ref = kernels::scalar_ops();
  std::mt19937_64 rng(0xC0FFEEULL);
  for (KernelIsa isa : host_isas()) {
    const auto& ops = kernels::ops_for(isa);
    for (std::size_t n = 1; n <= 40; ++n) {
      for (int rep = 0; rep < 8; ++rep) {
        auto a = random_words(rng, n);
        auto b = random_words(rng, n);
        // Some reps share a suffix or the whole span so equal/low-distance
        // branches get real coverage.
        if (rep % 3 == 0) std::copy(a.begin() + static_cast<long>(n / 2), a.end(),
                                    b.begin() + static_cast<long>(n / 2));
        if (rep % 5 == 0) b = a;

        EXPECT_EQ(ops.popcount(a.data(), n), ref.popcount(a.data(), n))
            << "popcount isa=" << kernels::to_string(isa) << " n=" << n;
        EXPECT_EQ(ops.hamming(a.data(), b.data(), n), ref.hamming(a.data(), b.data(), n))
            << "hamming isa=" << kernels::to_string(isa) << " n=" << n;
        EXPECT_EQ(ops.intersection(a.data(), b.data(), n),
                  ref.intersection(a.data(), b.data(), n))
            << "intersection isa=" << kernels::to_string(isa) << " n=" << n;
        EXPECT_EQ(ops.equal(a.data(), b.data(), n), ref.equal(a.data(), b.data(), n))
            << "equal isa=" << kernels::to_string(isa) << " n=" << n;

        // Bounded: exercise limits below, at, and above the true distance,
        // asserting exact integer equality (the limit + 1 contract), not
        // just verdict parity.
        const std::size_t d = ref.hamming(a.data(), b.data(), n);
        for (std::size_t limit :
             {std::size_t{0}, d / 2, d, d + 1, d + 17, std::size_t{64 * n}}) {
          EXPECT_EQ(ops.hamming_bounded(a.data(), b.data(), n, limit),
                    ref.hamming_bounded(a.data(), b.data(), n, limit))
              << "bounded isa=" << kernels::to_string(isa) << " n=" << n
              << " limit=" << limit;
        }
      }
    }
  }
}

TEST(KernelParity, BoundedContractExactValueOrLimitPlusOne) {
  std::mt19937_64 rng(42);
  for (KernelIsa isa : host_isas()) {
    const auto& ops = kernels::ops_for(isa);
    for (int rep = 0; rep < 32; ++rep) {
      const std::size_t n = 1 + rep % 19;
      auto a = random_words(rng, n);
      auto b = random_words(rng, n);
      const std::size_t d = kernels::scalar_ops().hamming(a.data(), b.data(), n);
      for (std::size_t limit = 0; limit <= d + 3; limit += 1 + limit / 2) {
        const std::size_t got = ops.hamming_bounded(a.data(), b.data(), n, limit);
        if (d <= limit) {
          EXPECT_EQ(got, d) << kernels::to_string(isa);
        } else {
          EXPECT_EQ(got, limit + 1) << kernels::to_string(isa);
        }
      }
    }
  }
}

// ---- Tail-word edge cases: rows whose last word is partially occupied ------

TEST(KernelParity, TailMaskedRowsAgreeAcrossIsas) {
  std::mt19937_64 rng(7);
  const auto& ref = kernels::scalar_ops();
  // Column counts straddling word boundaries: the tail word carries 1..63
  // live bits (or exactly fills), and bits past cols are zero — the BitMatrix
  // row invariant the whole-word kernels rely on.
  for (std::size_t cols : {1UL, 63UL, 64UL, 65UL, 127UL, 128UL, 129UL, 300UL, 511UL, 520UL}) {
    const std::size_t n = rolediet::util::words_for_bits(cols);
    const std::uint64_t mask = rolediet::util::tail_mask(cols);
    auto a = random_words(rng, n);
    auto b = random_words(rng, n);
    a.back() &= mask;
    b.back() &= mask;
    const std::size_t d = ref.hamming(a.data(), b.data(), n);
    for (KernelIsa isa : host_isas()) {
      const auto& ops = kernels::ops_for(isa);
      EXPECT_EQ(ops.popcount(a.data(), n), ref.popcount(a.data(), n)) << cols;
      EXPECT_EQ(ops.hamming(a.data(), b.data(), n), d) << cols;
      EXPECT_EQ(ops.intersection(a.data(), b.data(), n),
                ref.intersection(a.data(), b.data(), n))
          << cols;
      EXPECT_EQ(ops.equal(a.data(), b.data(), n), ref.equal(a.data(), b.data(), n)) << cols;
      EXPECT_EQ(ops.hamming_bounded(a.data(), b.data(), n, d), d) << cols;
      EXPECT_EQ(ops.hamming_bounded(a.data(), b.data(), n, d == 0 ? 0 : d - 1),
                ref.hamming_bounded(a.data(), b.data(), n, d == 0 ? 0 : d - 1))
          << cols;
    }
  }
}

// ---- Batch entry points: block results == single-pair results --------------

TEST(KernelParity, BlockKernelsMatchSinglePairOnEveryHostIsa) {
  std::mt19937_64 rng(99);
  for (KernelIsa isa : host_isas()) {
    const auto& ops = kernels::ops_for(isa);
    // Strides > n exercise padded layouts; counts around the 4-row register
    // block (1..9) exercise both the blocked body and the remainder loop.
    for (std::size_t n : {1UL, 3UL, 8UL, 13UL, 32UL}) {
      const std::size_t stride = n + (n % 3);
      for (std::size_t count = 1; count <= 9; ++count) {
        const auto q = random_words(rng, n);
        auto rows = random_words(rng, stride * count);
        std::vector<std::size_t> out(count, 0);

        ops.hamming_block(q.data(), rows.data(), stride, count, n, out.data());
        for (std::size_t r = 0; r < count; ++r)
          EXPECT_EQ(out[r], ops.hamming(q.data(), rows.data() + r * stride, n))
              << kernels::to_string(isa) << " n=" << n << " r=" << r;

        ops.intersection_block(q.data(), rows.data(), stride, count, n, out.data());
        for (std::size_t r = 0; r < count; ++r)
          EXPECT_EQ(out[r], ops.intersection(q.data(), rows.data() + r * stride, n))
              << kernels::to_string(isa) << " n=" << n << " r=" << r;

        const std::size_t limit = 16 * n;  // mixes exact and clamped rows
        ops.hamming_bounded_block(q.data(), rows.data(), stride, count, n, limit / 2,
                                  out.data());
        for (std::size_t r = 0; r < count; ++r)
          EXPECT_EQ(out[r],
                    ops.hamming_bounded(q.data(), rows.data() + r * stride, n, limit / 2))
              << kernels::to_string(isa) << " n=" << n << " r=" << r;
      }
    }
  }
}

// ---- Dispatch selection / override machinery -------------------------------

TEST(KernelDispatch, ParseRoundTripsEveryName) {
  for (KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar, KernelIsa::kAvx2,
                        KernelIsa::kAvx512, KernelIsa::kNeon}) {
    const auto parsed = kernels::parse_kernel_isa(kernels::to_string(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(kernels::parse_kernel_isa("sse9").has_value());
  EXPECT_FALSE(kernels::parse_kernel_isa("").has_value());
  EXPECT_FALSE(kernels::parse_kernel_isa("AVX2").has_value());  // names are lowercase
}

TEST(KernelDispatch, ActiveIsaNeverAutoAndIsSupported) {
  const KernelIsa isa = kernels::active_isa();
  EXPECT_NE(isa, KernelIsa::kAuto);
  EXPECT_TRUE(kernels::isa_supported(isa));
}

TEST(KernelDispatch, DetectPrefersWidestSupported) {
  const KernelIsa detected = kernels::detect_isa();
  EXPECT_TRUE(kernels::isa_supported(detected));
  // Detection must never leave a supported wider target on the table.
  if (kernels::isa_supported(KernelIsa::kAvx512)) {
    EXPECT_EQ(detected, KernelIsa::kAvx512);
  }
}

TEST(KernelDispatch, SetActiveIsaForcesAndRestores) {
  {
    ScopedKernelIsa forced(KernelIsa::kScalar);
    EXPECT_EQ(kernels::active_isa(), KernelIsa::kScalar);
    EXPECT_EQ(&kernels::active(), &kernels::scalar_ops());
  }
  EXPECT_EQ(kernels::active_isa(), kernels::detect_isa());
}

TEST(KernelDispatch, ForcingUnsupportedTargetThrows) {
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512, KernelIsa::kNeon}) {
    if (!kernels::isa_supported(isa)) {
      EXPECT_THROW(kernels::set_active_isa(isa), std::invalid_argument)
          << kernels::to_string(isa);
    }
  }
  // At least one x86/arm target is unsupported on any single host, so the
  // throw path is exercised everywhere: neon and avx2 can't both be runnable.
  EXPECT_FALSE(kernels::isa_supported(KernelIsa::kAvx2) &&
               kernels::isa_supported(KernelIsa::kNeon));
}

TEST(KernelDispatch, CapabilityStringListsScalarFirst) {
  const std::string caps = kernels::capability_string();
  EXPECT_EQ(caps.rfind("scalar", 0), 0U) << caps;
  for (KernelIsa isa : host_isas()) {
    EXPECT_NE(caps.find(std::string(kernels::to_string(isa))), std::string::npos) << caps;
  }
}

// ---- RowStore batch entry points against single-pair kernels ---------------

BitMatrix random_matrix(std::mt19937_64& rng, std::size_t rows, std::size_t cols,
                        double density) {
  BitMatrix m(rows, cols);
  std::bernoulli_distribution bit(density);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (bit(rng)) m.set(r, c);
  return m;
}

TEST(RowStoreBatch, BlockAndGatherMatchSinglePairOnEveryHostIsa) {
  std::mt19937_64 rng(123);
  const BitMatrix dense = random_matrix(rng, 37, 130, 0.3);
  const auto sparse = rolediet::linalg::to_sparse(dense);
  for (KernelIsa isa : host_isas()) {
    ScopedKernelIsa forced(isa);
    const RowStore backends[] = {RowStore(dense), RowStore(sparse)};
    for (const RowStore& store : backends) {
      const std::size_t q = 5;
      const std::size_t first = 9;
      const std::size_t count = 21;
      std::vector<std::size_t> out(count, 0);

      store.hamming_block(q, first, count, out.data());
      for (std::size_t k = 0; k < count; ++k)
        EXPECT_EQ(out[k], store.hamming(q, first + k)) << kernels::to_string(isa);

      store.intersection_block(q, first, count, out.data());
      for (std::size_t k = 0; k < count; ++k)
        EXPECT_EQ(out[k], store.intersection(q, first + k)) << kernels::to_string(isa);

      const std::size_t limit = 30;
      store.hamming_bounded_block(q, first, count, limit, out.data());
      for (std::size_t k = 0; k < count; ++k)
        EXPECT_EQ(out[k], store.hamming_bounded(q, first + k, limit))
            << kernels::to_string(isa);

      const std::vector<std::uint32_t> idx{0, 36, 7, 7, 18, 2};
      std::vector<std::size_t> gout(idx.size(), 0);
      store.intersection_gather(q, idx, gout.data());
      for (std::size_t k = 0; k < idx.size(); ++k)
        EXPECT_EQ(gout[k], store.intersection(q, idx[k])) << kernels::to_string(isa);

      // Zero-count block is a no-op, even at the end of the store.
      store.hamming_block(q, store.rows(), 0, out.data());
    }
  }
}

TEST(RowStoreBatch, BoundedValuesIdenticalAcrossBackends) {
  // The limit + 1 normalization means the *values*, not just verdicts, agree
  // between the dense kernels and the sparse merge loop.
  std::mt19937_64 rng(321);
  const BitMatrix dense = random_matrix(rng, 20, 130, 0.2);
  const auto sparse = rolediet::linalg::to_sparse(dense);
  const RowStore d(dense);
  const RowStore s(sparse);
  for (std::size_t a = 0; a < d.rows(); ++a) {
    for (std::size_t b = 0; b < d.rows(); ++b) {
      for (std::size_t limit : {0UL, 5UL, 20UL, 60UL, 200UL}) {
        EXPECT_EQ(d.hamming_bounded(a, b, limit), s.hamming_bounded(a, b, limit))
            << a << "," << b << " limit=" << limit;
      }
    }
  }
}

// The scalar table must be bit-for-bit the util/bitops.hpp path.
TEST(KernelScalar, MatchesUtilBitops) {
  std::mt19937_64 rng(777);
  const auto& ops = kernels::scalar_ops();
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 1 + rep % 9;
    const auto a = random_words(rng, n);
    const auto b = random_words(rng, n);
    const std::span<const std::uint64_t> sa(a);
    const std::span<const std::uint64_t> sb(b);
    EXPECT_EQ(ops.popcount(a.data(), n), rolediet::util::popcount_span(sa));
    EXPECT_EQ(ops.hamming(a.data(), b.data(), n), rolediet::util::hamming_words(sa, sb));
    EXPECT_EQ(ops.intersection(a.data(), b.data(), n),
              rolediet::util::intersection_words(sa, sb));
    EXPECT_EQ(ops.equal(a.data(), b.data(), n), rolediet::util::equal_words(sa, sb));
    for (std::size_t limit : {0UL, 3UL, 50UL, 600UL}) {
      EXPECT_EQ(ops.hamming_bounded(a.data(), b.data(), n, limit),
                rolediet::util::hamming_words_bounded(sa, sb, limit));
    }
  }
}

}  // namespace
