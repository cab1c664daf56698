// Stress and semantics tests for the threading layer:
//  - ThreadPool under concurrent submit()/parallel_for() from many caller
//    threads (including the shared default_pool());
//  - exception latching across overlapping waves: the first failure is
//    rethrown from wait_idle(), the pool survives and later waves run clean;
//  - the Parallelism knob convention (util/thread_pool.hpp): 1 = inline,
//    0 = shared default pool, N >= 2 = private pool of N;
//  - determinism: every parallelized finder returns byte-identical canonical
//    RoleGroups at threads = 1, 2, 8 on the same seeded workload.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/methods/approx.hpp"
#include "core/methods/cooccurrence.hpp"
#include "core/methods/exact.hpp"
#include "core/methods/minhash_lsh.hpp"
#include "gen/matrix_generator.hpp"
#include "util/thread_pool.hpp"

namespace rolediet {
namespace {

using core::RoleGroups;

TEST(ThreadPoolStress, ConcurrentSubmittersFromManyThreads) {
  util::ThreadPool pool(4);
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kTasksEach = 500;
  std::atomic<std::size_t> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (std::size_t t = 0; t < kTasksEach; ++t) {
        pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStress, ConcurrentParallelForCallersSeeEveryIndex) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kItems = 20'000;
  constexpr std::size_t kWaves = 3;
  std::vector<std::vector<std::uint32_t>> hits(kCallers,
                                               std::vector<std::uint32_t>(kItems, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t wave = 0; wave < kWaves; ++wave) {
        pool.parallel_for(
            kItems,
            [&, c](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) ++hits[c][i];
            },
            /*grain=*/64);
      }
    });
  }
  for (auto& thread : callers) thread.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[c][i], kWaves) << "caller " << c << ", index " << i;
    }
  }
}

TEST(ThreadPoolStress, SharedDefaultPoolFromManyThreads) {
  constexpr std::size_t kCallers = 5;
  constexpr std::size_t kItems = 10'000;
  std::vector<std::atomic<std::size_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      util::Parallelism par(0);  // knob 0 -> the shared default pool
      par.parallel_for(
          kItems,
          [&, c](std::size_t begin, std::size_t end) {
            sums[c].fetch_add(end - begin, std::memory_order_relaxed);
          },
          /*grain=*/128);
    });
  }
  for (auto& thread : callers) thread.join();
  for (std::size_t c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c].load(), kItems);
}

TEST(ThreadPoolStress, ExceptionLatchedAcrossOverlappingWavesAndPoolSurvives) {
  util::ThreadPool pool(2);
  // Wave 1: a mix of throwing and healthy tasks; the healthy ones must all
  // run, and wait_idle() must surface (exactly) the first failure.
  std::atomic<std::size_t> healthy{0};
  for (int t = 0; t < 16; ++t) {
    if (t % 4 == 0) {
      pool.submit([] { throw std::runtime_error("wave-1 failure"); });
    } else {
      pool.submit([&] { healthy.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(healthy.load(), 12u);

  // Wave 2: the latch was consumed; a clean wave reports no error.
  for (int t = 0; t < 8; ++t) {
    pool.submit([&] { healthy.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(healthy.load(), 20u);

  // Wave 3: a throwing parallel_for body also latches, and the pool keeps
  // serving afterwards.
  EXPECT_THROW(pool.parallel_for(
                   4096, [](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::logic_error("wave-3 failure");
                   },
                   /*grain=*/64),
               std::logic_error);
  std::atomic<std::size_t> after{0};
  pool.parallel_for(
      4096, [&](std::size_t begin, std::size_t end) {
        after.fetch_add(end - begin, std::memory_order_relaxed);
      },
      /*grain=*/64);
  EXPECT_EQ(after.load(), 4096u);
}

TEST(ParallelismConvention, KnobResolvesAsDocumented) {
  const util::Parallelism sequential(1);
  EXPECT_FALSE(sequential.parallel());
  EXPECT_EQ(sequential.workers(), 1u);

  util::Parallelism shared(0);
  EXPECT_TRUE(shared.parallel());
  EXPECT_EQ(shared.workers(), util::default_pool().thread_count());

  util::Parallelism owned(3);
  EXPECT_TRUE(owned.parallel());
  EXPECT_EQ(owned.workers(), 3u);
}

TEST(ParallelismConvention, SequentialRunsInlineExactlyOnce) {
  util::Parallelism sequential(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  std::size_t covered = 0;
  sequential.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(covered, 100u);
  sequential.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1u) << "n = 0 must not invoke the body";
}

// ---- determinism: byte-identical groups at threads = 1, 2, 8 ---------------

linalg::CsrMatrix determinism_workload() {
  gen::MatrixGenParams params;
  params.roles = 400;
  params.cols = 250;
  params.clustered_fraction = 0.3;
  params.max_cluster_size = 8;
  params.perturb_bits = 1;
  params.ensure_unique_rows = false;
  params.seed = 0xDE7E12;
  return gen::generate_matrix(params).matrix;
}

/// Runs `compute(threads)` at 1/2/8 threads and requires identical groups.
template <typename Compute>
void expect_thread_invariant(const char* what, Compute&& compute) {
  const RoleGroups baseline = compute(std::size_t{1});
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(compute(threads), baseline) << what << " at threads=" << threads;
  }
}

TEST(FinderDeterminism, RoleDietInvariantUnderThreadCount) {
  const linalg::CsrMatrix m = determinism_workload();
  expect_thread_invariant("role-diet find_same (hash)", [&](std::size_t threads) {
    return core::methods::RoleDietGroupFinder({.threads = threads}).find_same(m);
  });
  expect_thread_invariant("role-diet find_same (matrix)", [&](std::size_t threads) {
    return core::methods::RoleDietGroupFinder(
               {.same_strategy =
                    core::methods::RoleDietGroupFinder::SameStrategy::kCooccurrenceMatrix,
                .threads = threads})
        .find_same(m);
  });
  expect_thread_invariant("role-diet find_similar t=2", [&](std::size_t threads) {
    return core::methods::RoleDietGroupFinder({.threads = threads}).find_similar(m, 2);
  });
  expect_thread_invariant("role-diet find_similar_jaccard", [&](std::size_t threads) {
    return core::methods::RoleDietGroupFinder({.threads = threads})
        .find_similar_jaccard(m, 250'000);
  });
}

TEST(FinderDeterminism, DbscanInvariantUnderThreadCount) {
  const linalg::CsrMatrix m = determinism_workload();
  expect_thread_invariant("dbscan find_same", [&](std::size_t threads) {
    return core::methods::DbscanGroupFinder({.threads = threads}).find_same(m);
  });
  expect_thread_invariant("dbscan find_similar t=1", [&](std::size_t threads) {
    return core::methods::DbscanGroupFinder({.threads = threads}).find_similar(m, 1);
  });
}

TEST(FinderDeterminism, MinHashInvariantUnderThreadCount) {
  const linalg::CsrMatrix m = determinism_workload();
  expect_thread_invariant("minhash find_same", [&](std::size_t threads) {
    core::methods::MinHashGroupFinder::Options options;
    options.lsh.threads = threads;
    return core::methods::MinHashGroupFinder(options).find_same(m);
  });
  expect_thread_invariant("minhash find_similar t=1", [&](std::size_t threads) {
    core::methods::MinHashGroupFinder::Options options;
    options.lsh.threads = threads;
    return core::methods::MinHashGroupFinder(options).find_similar(m, 1);
  });
}

TEST(FinderDeterminism, HnswInvariantUnderThreadCount) {
  const linalg::CsrMatrix m = determinism_workload();
  // Serial index build: only the query fan-out parallelizes, and its
  // unions are order-independent.
  expect_thread_invariant("hnsw serial-build find_similar t=1", [&](std::size_t threads) {
    core::methods::HnswGroupFinder::Options options;
    options.threads = threads;
    return core::methods::HnswGroupFinder(options).find_similar(m, 1);
  });
}

}  // namespace
}  // namespace rolediet
