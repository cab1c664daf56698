// Immutable published engine versions — the read side of the writer/reader
// split.
//
// AuditEngine and ShardedEngine are single-writer objects: whoever owns one
// must serialize every mutation *and* every findings query. The engine's
// versioned dataset plus the cached pair verdicts already behave like MVCC
// internally; EngineVersion makes that an API. When publishing is enabled, a
// completed reaudit() captures everything a reader could ask about —
//
//   - the dataset exactly as audited, behind a stable shared_ptr handle,
//   - the full AuditReport (findings, per-phase timings, work stats),
//   - the persistent engine state (version counters, cached type-5 pair
//     verdicts, the — empty, post-reaudit — dirty frontier),
//
// into one immutable EngineVersion and swaps it into a VersionSlot. Readers
// pin the current version with one nanoseconds-wide pointer copy and keep it
// alive for as long as they hold the shared_ptr, while the writer keeps
// mutating and publishing newer versions — snapshot isolation where a reader
// never waits on the writer's *work*, only on a pointer swap
// (service/audit_service.hpp builds the serving layer on top).
//
// Ownership rule: an EngineVersion never references engine memory. The
// dataset is a fresh copy, the report and state are values. That is what
// makes a version safely shareable across threads and what lets the durable
// store checkpoint a *published* version while the writer is mid-batch
// (store/engine_store.hpp).
//
// Publication is opt-in (AuditEngine::set_publish_versions): capturing a
// version costs one bulk copy per reaudit — the name tables and the compiled
// rows (RbacDataset::from_compiled), O(names + edges), about 2.4 ms on the
// 60k-employee churn-serve benchmark on a 4-vCPU x86-64 host — which the
// one-shot audit() and the batch benches must not pay for a version nobody
// will read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/methods/method_common.hpp"
#include "core/model.hpp"

namespace rolediet::core {

/// The engine state a durable checkpoint must carry beyond the dataset
/// itself: version counters, the pending dirty frontier, and the cached
/// type-5 matched-pair verdicts. The maintained candidate artifacts (MinHash
/// band index, HNSW graph) are deliberately NOT part of it — they are
/// rebuild-marked on restore and the next reaudit() reconstructs them from
/// the restored matrices, which keeps snapshots small and the on-disk format
/// independent of artifact internals (store/snapshot.hpp serializes this).
struct EnginePersistentState {
  struct AxisState {
    std::vector<std::uint8_t> dirty;  ///< per-role "mutated since last reaudit"
    bool similar_valid = false;       ///< pair cache usable for a delta pass
    methods::MatchedPairs similar_pairs;  ///< sorted unique content-decided pairs
  };
  std::uint64_t version = 0;
  std::uint64_t audits = 0;
  bool audited_once = false;
  AxisState users;
  AxisState perms;
};

/// One published, immutable audit version. Shareable across any number of
/// threads; everything in it is a value owned by the version itself.
struct EngineVersion {
  /// Dataset version the findings describe (effective mutation count).
  std::uint64_t version = 0;
  /// Completed reaudit() count at publication (monotone per engine — a
  /// reader can tell "newer version" by comparing this field).
  std::uint64_t audits = 0;
  /// The audited dataset, frozen. Never null on a published version, and
  /// published with its lazy matrix caches pre-compiled (warm_caches), so
  /// concurrent const reads from any number of threads are safe.
  std::shared_ptr<const RbacDataset> dataset;
  /// Findings + timings + work stats of the publishing reaudit().
  AuditReport report;
  /// Counters, (clean) dirty frontier, and cached pair verdicts at
  /// publication — exactly what a checkpoint of this version needs.
  EnginePersistentState state;
};

/// Publication slot: a shared_ptr guarded by a hand-rolled acq/rel spinlock
/// whose critical section is one pointer copy or swap — nanoseconds, never
/// held across any real work.
///
/// Why not std::atomic<std::shared_ptr>? libstdc++'s _Sp_atomic is itself an
/// embedded spinlock (so nothing here is "less lock-free"), but its
/// reader-side unlock is a *relaxed* store — a data race under the formal
/// memory model, which TSan flags and our CI runs with halt_on_error=1.
/// Rolling the ~10-line lock ourselves with proper acquire/release fencing
/// costs the same cycles, is provably race-free, and means the code TSan
/// verifies is exactly the code release builds ship.
///
/// Movable so engines holding a slot stay movable (moves happen only on the
/// single-owner path, never concurrently with a publish — same contract as
/// every other engine member); not copyable.
class VersionSlot {
 public:
  VersionSlot() = default;
  VersionSlot(VersionSlot&& other) noexcept : slot_(other.load()) {}
  VersionSlot& operator=(VersionSlot&& other) noexcept {
    publish(other.load());
    return *this;
  }
  VersionSlot(const VersionSlot&) = delete;
  VersionSlot& operator=(const VersionSlot&) = delete;

  /// Atomically replaces the published version (writer side). The previous
  /// version's refcount drop — which may run its destructor — happens after
  /// the lock is released.
  void publish(std::shared_ptr<const EngineVersion> version) {
    lock();
    slot_.swap(version);
    unlock();
  }

  /// Atomically pins the current version (reader side); null when nothing
  /// has been published yet.
  [[nodiscard]] std::shared_ptr<const EngineVersion> load() const {
    lock();
    std::shared_ptr<const EngineVersion> pinned = slot_;
    unlock();
    return pinned;
  }

 private:
  void lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
  }
  void unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const EngineVersion> slot_;
};

}  // namespace rolediet::core
