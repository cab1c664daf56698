// Tests specific to the paper's custom algorithm: the two find_same
// strategies, the co-occurrence arithmetic, the tiny-norm corner cases of the
// similar-role sweep, the norm-decided star, and the prefix filter that
// generates its candidates — pinned at pair level, because groups hide a
// missing pair whenever transitivity reconnects it.
//
// Threaded cases end in T8 so the sanitizer jobs can select them.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "cluster/metric.hpp"
#include "cluster/union_find.hpp"
#include "core/methods/cooccurrence.hpp"
#include "core/methods/method_common.hpp"
#include "core/methods/prefix_filter.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace rolediet::core::methods {
namespace {

using rolediet::testing::csr_from_rows;

RoleDietGroupFinder hash_finder() { return RoleDietGroupFinder{}; }
RoleDietGroupFinder matrix_finder() {
  return RoleDietGroupFinder{
      {.same_strategy = RoleDietGroupFinder::SameStrategy::kCooccurrenceMatrix}};
}

TEST(RoleDiet, StrategiesAgreeOnFigure1) {
  const RbacDataset d = rolediet::testing::figure1_dataset();
  EXPECT_EQ(hash_finder().find_same(d.ruam()), matrix_finder().find_same(d.ruam()));
  EXPECT_EQ(hash_finder().find_same(d.rpam()), matrix_finder().find_same(d.rpam()));
}

TEST(RoleDiet, PaperIndicatorSemantics) {
  // The paper's worked co-occurrence matrix: |R01|=1, |R02|=2, |R03|=0,
  // |R04|=2, |R05|=1, g(R02,R04)=2 => only I(R02,R04)=1.
  const RbacDataset d = rolediet::testing::figure1_dataset();
  const auto& ruam = d.ruam();
  EXPECT_EQ(ruam.row_size(0), 1u);
  EXPECT_EQ(ruam.row_size(1), 2u);
  EXPECT_EQ(ruam.row_size(2), 0u);
  EXPECT_EQ(ruam.row_size(3), 2u);
  EXPECT_EQ(ruam.row_size(4), 1u);
  EXPECT_EQ(ruam.row_intersection(1, 3), 2u);
  EXPECT_EQ(ruam.row_intersection(0, 1), 0u);

  const RoleGroups groups = matrix_finder().find_same(ruam);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{1, 3}));
}

TEST(RoleDiet, IndicatorRejectsSubsets) {
  // g = |Ri| but |Rj| > g: subset, not equal — indicator must be 0.
  const auto m = csr_from_rows(10, {{1, 2}, {1, 2, 3}});
  EXPECT_TRUE(matrix_finder().find_same(m).groups.empty());
  EXPECT_TRUE(hash_finder().find_same(m).groups.empty());
}

TEST(RoleDiet, StrategiesAgreeOnManyGroups) {
  // 60 rows in 12 planted groups of 5 + 40 distinct rows.
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::uint32_t g = 0; g < 12; ++g) {
    for (int k = 0; k < 5; ++k) rows.push_back({g * 7, g * 7 + 1, g * 7 + 2});
  }
  for (std::uint32_t i = 0; i < 40; ++i) rows.push_back({100 + i, 200 + i});
  const auto m = csr_from_rows(300, rows);

  const RoleGroups by_hash = hash_finder().find_same(m);
  const RoleGroups by_matrix = matrix_finder().find_same(m);
  EXPECT_EQ(by_hash, by_matrix);
  EXPECT_EQ(by_hash.group_count(), 12u);
  EXPECT_EQ(by_hash.roles_in_groups(), 60u);
}

TEST(RoleDiet, SimilarHammingIdentity) {
  // d(Ri, Rj) = |Ri| + |Rj| - 2 g: {1,2,3} vs {2,3,4,5} -> 3 + 4 - 2*2 = 3.
  const auto m = csr_from_rows(10, {{1, 2, 3}, {2, 3, 4, 5}});
  EXPECT_EQ(m.row_hamming(0, 1), 3u);
  const RoleDietGroupFinder finder;
  EXPECT_TRUE(finder.find_similar(m, 2).groups.empty());
  EXPECT_EQ(finder.find_similar(m, 3).group_count(), 1u);
}

TEST(RoleDiet, SimilarTinyNormPassOnlyForDisjointRows) {
  // {1} and {2}: disjoint, d=2. {1} and {1,5}: share a column, d=1.
  const auto m = csr_from_rows(10, {{1}, {2}, {1, 5}});
  const RoleDietGroupFinder finder;

  const RoleGroups at1 = finder.find_similar(m, 1);
  ASSERT_EQ(at1.group_count(), 1u);
  EXPECT_EQ(at1.groups[0], (std::vector<std::size_t>{0, 2}));

  const RoleGroups at2 = finder.find_similar(m, 2);
  ASSERT_EQ(at2.group_count(), 1u);
  EXPECT_EQ(at2.groups[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RoleDiet, TinyNormSweepDoesNotOvermerge) {
  // Norm-1 + norm-2 disjoint rows: d = 3 > 2, must NOT group at t=2.
  const auto m = csr_from_rows(10, {{1}, {2, 3}});
  const RoleDietGroupFinder finder;
  EXPECT_TRUE(finder.find_similar(m, 2).groups.empty());
  EXPECT_EQ(finder.find_similar(m, 3).group_count(), 1u);
}

TEST(RoleDiet, SingleColumnMatrix) {
  // All non-empty rows in a 1-column matrix are identical {0}.
  const auto m = csr_from_rows(1, {{0}, {}, {0}, {0}});
  const RoleGroups groups = hash_finder().find_same(m);
  ASSERT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::size_t>{0, 2, 3}));
}

TEST(RoleDiet, HighDegreeColumnCorrectness) {
  // One column shared by every row (a "global" user) plus one distinguishing
  // column per row pair: stresses the inverted-index sweep.
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::uint32_t i = 0; i < 30; ++i) rows.push_back({0, 1 + i / 2});
  const auto m = csr_from_rows(40, rows);
  const RoleGroups groups = hash_finder().find_same(m);
  EXPECT_EQ(groups.group_count(), 15u);  // consecutive pairs
  EXPECT_EQ(groups.roles_in_groups(), 30u);
  EXPECT_EQ(groups, matrix_finder().find_same(m));
}

TEST(RoleDiet, DeterministicAcrossCalls) {
  const auto m = csr_from_rows(50, {{1, 2}, {1, 2}, {9}, {9}, {20, 21, 22}});
  const RoleDietGroupFinder finder;
  EXPECT_EQ(finder.find_same(m), finder.find_same(m));
  EXPECT_EQ(finder.find_similar(m, 1), finder.find_similar(m, 1));
}

// ---- prefix filter ----------------------------------------------------------

TEST(PrefixFilter, HammingPrefixLengthIsTPlusOneCappedAtTheNorm) {
  for (std::size_t t = 0; t <= 8; ++t) {
    const SimilarVerdict verdict = SimilarVerdict::hamming(t);
    for (std::size_t n = 0; n <= 40; ++n) {
      EXPECT_EQ(verdict.prefix_length(n), std::min(n, t + 1)) << "t=" << t << " n=" << n;
    }
  }
  // t + 1 wraps to 0 at the largest threshold the CLI accepts; the prefix
  // must still be the whole row.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (std::size_t t : {kMax, kMax - 1}) {
    EXPECT_EQ(SimilarVerdict::hamming(t).prefix_length(0), 0u);
    EXPECT_EQ(SimilarVerdict::hamming(t).prefix_length(5), 5u);
  }
}

TEST(PrefixFilter, JaccardPrefixLengthMatchesABruteForceScanOfTheFormula) {
  for (double d : {0.0, 0.05, 0.2, 0.3, 0.5, 0.8, 0.99, 1.0}) {
    const std::size_t scaled = jaccard_threshold(d);
    const SimilarVerdict verdict = SimilarVerdict::jaccard(scaled);
    for (std::size_t n = 0; n <= 300; ++n) {
      std::size_t expected = 0;
      for (std::size_t m = 0; m < n; ++m) {
        if (cluster::jaccard_scaled_from_counts(n, n - m, n - m) <= scaled) expected = m + 1;
      }
      EXPECT_EQ(verdict.prefix_length(n), expected) << "d=" << d << " n=" << n;
    }
  }
}

TEST(PrefixFilter, PrefixesTakeTheRarestColumnsAndPostingsInvertThem) {
  // Column 0 is in every non-empty row, column 1 in most; the rare tails
  // decide.
  const auto m = csr_from_rows(10, {{0, 1, 5, 6}, {0, 1, 5, 7}, {0, 1, 8}, {0, 9}, {}});
  const std::vector<std::size_t> degrees = m.column_sums();
  const PrefixIndex index(m, degrees, SimilarVerdict::hamming(1));
  auto sorted = [](std::span<const std::uint32_t> s) {
    std::vector<std::uint32_t> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(index.prefix(0)), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(sorted(index.prefix(1)), (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(sorted(index.prefix(2)), (std::vector<std::uint32_t>{1, 8}));  // (3,1) < (4,0)
  EXPECT_EQ(sorted(index.prefix(3)), (std::vector<std::uint32_t>{0, 9}));  // the whole row
  EXPECT_TRUE(index.prefix(4).empty());
  EXPECT_EQ(index.entries(), 8u);
  EXPECT_EQ(sorted(index.postings(5)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(sorted(index.postings(0)), (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(index.postings(2).empty());

  // Row 0's candidates: row 1 via column 5; rows 2 and 3 share no prefix
  // column with it.
  PrefixCandidates candidates(index);
  const auto all = [](std::size_t) { return true; };
  EXPECT_EQ(sorted(candidates.collect(0, all)), (std::vector<std::uint32_t>{1}));
}

// ---- the norm-decided star -----------------------------------------------

/// unite_norm_decided over `norms` at Hamming threshold t against a
/// brute-force enumeration of every pair of non-empty rows with
/// norms summing within t: the same components and the same count.
void expect_star_equals_brute_force(const std::vector<std::size_t>& norms, std::size_t t,
                                    const std::string& where) {
  cluster::UnionFind star(norms.size());
  const std::size_t count = SimilarVerdict::hamming(t).unite_norm_decided(
      norms.size(), [&norms](std::size_t r) { return norms[r]; }, star);
  cluster::UnionFind brute(norms.size());
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < norms.size(); ++i) {
    for (std::size_t j = i + 1; j < norms.size(); ++j) {
      if (norms[i] > 0 && norms[j] > 0 && norms[i] + norms[j] <= t) {
        ++pairs;
        brute.unite(i, j);
      }
    }
  }
  EXPECT_EQ(count, pairs) << where;
  EXPECT_EQ(star.groups(2), brute.groups(2)) << where;
}

TEST(NormDecidedStar, ComponentsAndCountEqualBruteForce) {
  util::Xoshiro256 rng(0x57A2);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::size_t> norms(rng.bounded(40));
    const std::size_t zeros = rng.bounded(4);  // 0 = no empty row
    for (std::size_t& n : norms) {
      n = zeros != 0 && rng.bounded(zeros + 2) == 0 ? 0 : 1 + rng.bounded(7);
    }
    const std::size_t t = rng.bounded(14);
    expect_star_equals_brute_force(norms, t, "trial " + std::to_string(trial));
  }
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // The largest threshold: every non-empty pair, t - m formed without wrap.
  expect_star_equals_brute_force({0, 3, 1, 5, 0, 2, 9}, kMax, "t = 2^64 - 1");
  expect_star_equals_brute_force({kMax - 1, 1, 0}, kMax, "t = 2^64 - 1, m = 1");
  // t < m: no row fits, and t - m is never formed.
  expect_star_equals_brute_force({3, 4, 5}, 2, "t < m");
  // m <= t but 2m > t: S is empty.
  expect_star_equals_brute_force({3, 4, 5}, 5, "2m > t");
  // |S| = 1: the centre alone, no pair.
  expect_star_equals_brute_force({1, 3, 4}, 3, "|S| = 1");
  // No non-empty row, and no row at all.
  expect_star_equals_brute_force({0, 0, 0}, 4, "all empty");
  expect_star_equals_brute_force({}, 4, "no rows");
  // t < 2 returns at once: two non-empty rows sum to at least 2.
  expect_star_equals_brute_force({1, 1, 2}, 0, "t = 0");
  expect_star_equals_brute_force({1, 1, 2}, 1, "t = 1");
}

TEST(NormDecidedStar, MatrixRowsAndJaccardVerdict) {
  // Rows 0 and 2 (norm 1) match on norms at t = 2; row 3 (norm 3) does not,
  // and the empty row 1 never joins.
  const auto m = csr_from_rows(5, {{1}, {}, {2}, {1, 2, 3}});
  cluster::UnionFind forest(m.rows());
  EXPECT_EQ(SimilarVerdict::hamming(2).unite_norm_decided(m, forest), 1u);
  EXPECT_EQ(forest.groups(2), (std::vector<std::vector<std::size_t>>{{0, 2}}));
  EXPECT_TRUE(SimilarVerdict::hamming(2).norm_decided(1, 1));
  EXPECT_FALSE(SimilarVerdict::hamming(2).norm_decided(1, 2));
  // Jaccard decides no pair by norms.
  cluster::UnionFind untouched(m.rows());
  EXPECT_EQ(SimilarVerdict::jaccard(cluster::kJaccardScale).unite_norm_decided(m, untouched), 0u);
  EXPECT_TRUE(untouched.groups(2).empty());
  EXPECT_FALSE(SimilarVerdict::jaccard(cluster::kJaccardScale).norm_decided(1, 1));
}

/// Seeded matrix with the shapes that stress the filter: hub columns in
/// most rows, near-copies of earlier rows (the matches), tiny rows, and
/// empty rows.
linalg::CsrMatrix filter_workload(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t cols = 40 + rng.bounded(40);
  const std::size_t rows = 80 + rng.bounded(80);
  std::vector<std::vector<std::uint32_t>> out;
  for (std::size_t r = 0; r < rows; ++r) {
    std::set<std::uint32_t> row;
    const std::size_t kind = rng.bounded(10);
    if (kind == 0) {
      // empty
    } else if (kind <= 4 && !out.empty()) {
      const auto& base = out[rng.bounded(out.size())];
      row.insert(base.begin(), base.end());
      for (std::size_t flips = rng.bounded(4); flips > 0; --flips) {
        const auto c = static_cast<std::uint32_t>(rng.bounded(cols));
        if (!row.erase(c)) row.insert(c);
      }
    } else {
      for (std::uint32_t hub = 0; hub < 3; ++hub) {
        if (rng.bernoulli(0.7)) row.insert(hub);
      }
      for (std::size_t k = rng.bounded(kind == 5 ? 2 : 9); k > 0; --k) {
        row.insert(static_cast<std::uint32_t>(rng.bounded(cols)));
      }
    }
    out.emplace_back(row.begin(), row.end());
  }
  return csr_from_rows(cols, out);
}

MatchedPairs brute_force_pairs(const linalg::CsrMatrix& m, const SimilarVerdict& verdict) {
  MatchedPairs pairs;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) {
      if (m.row_size(i) == 0 || m.row_size(j) == 0) continue;
      if (verdict.accepts(m.row_size(i), m.row_size(j), m.row_intersection(i, j))) {
        pairs.emplace_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      }
    }
  }
  return pairs;
}

MatchedPairs sorted_unique(MatchedPairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// The pairs of `pairs` that norms alone do not decide under `verdict`.
MatchedPairs content_decided(MatchedPairs pairs, const linalg::CsrMatrix& m,
                             const SimilarVerdict& verdict) {
  std::erase_if(pairs, [&](const std::pair<std::uint32_t, std::uint32_t>& p) {
    return verdict.norm_decided(m.row_size(p.first), m.row_size(p.second));
  });
  return pairs;
}

/// The connected components of `pairs` over m's rows, as canonical groups.
RoleGroups components(const linalg::CsrMatrix& m, const MatchedPairs& pairs) {
  cluster::UnionFind forest(m.rows());
  for (const auto& [a, b] : pairs) forest.unite(a, b);
  RoleGroups out;
  out.groups = forest.groups(2);
  out.normalize();
  return out;
}

/// The Hamming sink contract (group_finder.hpp): the norm-decided pairs are
/// joined by a star, not sunk, so the sink's content-decided pairs are the
/// brute force's, the sink holds no pair the brute force lacks, and the
/// groups are the brute-force components.
void expect_hamming_sink_contract(const MatchedPairs& sink, const RoleGroups& groups,
                                  const linalg::CsrMatrix& m, std::size_t t,
                                  const std::string& where) {
  const SimilarVerdict verdict = SimilarVerdict::hamming(t);
  const MatchedPairs expected = brute_force_pairs(m, verdict);
  const MatchedPairs got = sorted_unique(sink);
  EXPECT_EQ(content_decided(got, m, verdict), content_decided(expected, m, verdict)) << where;
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(), got.end())) << where;
  EXPECT_EQ(groups, components(m, expected)) << where;
}

class PrefixFilterOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixFilterOracle, HammingMatchedPairsEqualBruteForce) {
  const RoleDietGroupFinder finder({.threads = GetParam()});
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const linalg::CsrMatrix m = filter_workload(seed);
    for (std::size_t t : {1u, 2u, 3u, 6u}) {
      MatchedPairs sink;
      finder.collect_matched_pairs(&sink);
      const RoleGroups groups = finder.find_similar(m, t);
      finder.collect_matched_pairs(nullptr);
      expect_hamming_sink_contract(sink, groups, m, t,
                                   "seed " + std::to_string(seed) + ", t=" + std::to_string(t));
    }
  }
}

TEST_P(PrefixFilterOracle, LargestHammingThresholdMatchesEveryNonEmptyPair) {
  // Every prefix is the whole row and every non-empty pair matches, through
  // the prefix sweep or the norm-decided star.
  const RoleDietGroupFinder finder({.threads = GetParam()});
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const SimilarVerdict verdict = SimilarVerdict::hamming(kMax);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const linalg::CsrMatrix m = filter_workload(seed);
    MatchedPairs sink;
    finder.collect_matched_pairs(&sink);
    const RoleGroups groups = finder.find_similar(m, kMax);
    finder.collect_matched_pairs(nullptr);
    const MatchedPairs expected = brute_force_pairs(m, verdict);
    expect_hamming_sink_contract(sink, groups, m, kMax, "seed " + std::to_string(seed));
    std::size_t nonempty = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) nonempty += m.row_size(r) > 0;
    EXPECT_EQ(expected.size(), nonempty * (nonempty - 1) / 2) << "seed " << seed;
    ASSERT_EQ(groups.group_count(), 1u) << "seed " << seed;
    EXPECT_EQ(groups.roles_in_groups(), nonempty) << "seed " << seed;
  }
}

TEST_P(PrefixFilterOracle, JaccardMatchedPairsEqualBruteForce) {
  const RoleDietGroupFinder finder({.threads = GetParam()});
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const linalg::CsrMatrix m = filter_workload(seed);
    for (double d : {0.05, 0.2, 0.5, 0.8, 0.99}) {
      const std::size_t scaled = jaccard_threshold(d);
      MatchedPairs sink;
      finder.collect_matched_pairs(&sink);
      (void)finder.find_similar_jaccard(m, scaled);
      finder.collect_matched_pairs(nullptr);
      EXPECT_EQ(sorted_unique(sink), brute_force_pairs(m, SimilarVerdict::jaccard(scaled)))
          << "seed " << seed << ", d=" << d;
    }
  }
}

TEST_P(PrefixFilterOracle, CandidatesStayFarBelowTheCooccurringPairs) {
  // Hub columns make almost every pair co-occur; the filter must not.
  const RoleDietGroupFinder finder({.threads = GetParam()});
  const linalg::CsrMatrix m = filter_workload(7);
  std::size_t cooccurring = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) cooccurring += m.row_intersection(i, j) > 0;
  }
  (void)finder.find_similar(m, 1);
  EXPECT_LT(finder.last_work().pairs_evaluated * 4, cooccurring);
}

INSTANTIATE_TEST_SUITE_P(Threads, PrefixFilterOracle, ::testing::Values(1u, 4u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "T" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rolediet::core::methods
