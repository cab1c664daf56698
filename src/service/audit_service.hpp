// AuditService — the serving layer over the durable store: one writer
// thread, many snapshot-isolated readers.
//
// The engine/store stack underneath is strictly single-writer: both engines
// and both store layouts (held through store::Store) require every
// mutation *and* every findings query to be serialized by the owner. That is
// the right contract for a library, and the wrong one for a service — an
// operator dashboard asking "which roles share this group?" must not wait
// behind a multi-second reaudit.
//
// AuditService splits the two worlds along the published-version seam
// (core/engine_version.hpp):
//
//   writer side   one dedicated thread owns the store. Clients submit()
//                 RbacDelta batches into a bounded queue (util/
//                 bounded_queue.hpp); the writer pops, WAL-appends + applies,
//                 and every `reaudit_every` batches runs store.reaudit(),
//                 which publishes a fresh immutable EngineVersion. Every
//                 `checkpoint_every` reaudits it also checkpoints — from the
//                 *published* version on the flat store, and strictly
//                 between batches either way (see store/sharded_store.hpp on
//                 why the sharded store needs that ordering).
//
//   reader side   begin_read() pins the current published version with one
//                 nanoseconds-wide pointer copy and hands back a ReadSession. Every
//                 answer the session serves comes from that version's frozen
//                 dataset + report — snapshot isolation by construction, no
//                 reader/writer lock anywhere, and the writer can publish
//                 ten newer versions while the session is alive without
//                 invalidating anything it returns.
//
// Admission control, both directions: the writer queue is bounded (submit()
// blocks, try_submit() rejects with Overloaded), and at most `max_readers`
// ReadSessions may be in flight at once (begin_read() rejects with
// Overloaded). Each session can carry a deadline (util::ExecutionContext);
// once it expires every further accessor throws DeadlineExpired, so a slow
// consumer cannot hold results past its budget without noticing.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_version.hpp"
#include "core/framework.hpp"
#include "store/store.hpp"
#include "util/bounded_queue.hpp"
#include "util/execution_context.hpp"

namespace rolediet::service {

/// Admission rejection: the writer queue or the reader slots are full.
/// Deliberately cheap to construct and retryable — the caller backs off.
class Overloaded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A ReadSession outlived its deadline; its pinned version is released and
/// every further accessor throws this.
class DeadlineExpired : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServiceOptions {
  /// 0 = flat store layout; N >= 1 = sharded layout with N shards.
  std::size_t shards = 0;
  /// Delta batches between reaudits (>= 1). Lower = fresher versions,
  /// higher = more writer throughput.
  std::size_t reaudit_every = 4;
  /// Reaudits between checkpoints; 0 disables periodic checkpoints (stop()
  /// still checkpoints once at the end so recovery stays cheap).
  std::size_t checkpoint_every = 4;
  /// Writer queue capacity (submit() blocks / try_submit() rejects beyond).
  std::size_t max_queue = 64;
  /// Max concurrent ReadSessions before begin_read() rejects.
  std::size_t max_readers = 64;
};

/// Monotone service counters. Readable from any thread at any time; the
/// duration fields are written only by the writer thread.
struct ServiceStats {
  std::atomic<std::uint64_t> batches_applied{0};
  std::atomic<std::uint64_t> mutations_applied{0};
  std::atomic<std::uint64_t> versions_published{0};
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> reads_admitted{0};
  std::atomic<std::uint64_t> reads_rejected{0};
  /// Seconds the writer spent *not* applying batches (reaudit + checkpoint):
  /// the stall a synchronous design would impose on readers, and what
  /// perfbench's `service.reads_in_reaudit` shows readers no longer pay.
  std::atomic<double> writer_stall_seconds{0.0};
  std::atomic<double> reaudit_seconds{0.0};
  std::atomic<double> checkpoint_seconds{0.0};
};

/// Name-level view of one role's group memberships in a pinned version.
struct RoleMembership {
  bool known = false;  ///< the role exists in the pinned version's dataset
  std::vector<std::string> same_users;            ///< co-members, type 4 (user axis)
  std::vector<std::string> same_permissions;      ///< co-members, type 4 (permission axis)
  std::vector<std::string> similar_users;         ///< co-members, type 5 (user axis)
  std::vector<std::string> similar_permissions;   ///< co-members, type 5 (permission axis)
};

/// The findings of a pinned version, by const reference into the version
/// (valid for the session's lifetime).
struct Findings {
  const core::StructuralFindings& structural;
  const core::RoleGroups& same_users;
  const core::RoleGroups& same_permissions;
  const core::RoleGroups& similar_users;
  const core::RoleGroups& similar_permissions;
};

class AuditService;

/// One admitted read request: a pinned published version plus an optional
/// deadline. Movable, not copyable; releases its reader slot on destruction.
/// Every accessor answers from the pinned version only — concurrent writer
/// progress is invisible by construction.
class ReadSession {
 public:
  ReadSession(ReadSession&& other) noexcept;
  ReadSession& operator=(ReadSession&&) = delete;
  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;
  ~ReadSession();

  /// The pinned version (never null for an admitted session).
  [[nodiscard]] const core::EngineVersion& version() const;
  /// Shares the pin — lets a caller keep the version alive past the session.
  [[nodiscard]] std::shared_ptr<const core::EngineVersion> version_handle() const;

  /// Full audit report of the pinned version.
  [[nodiscard]] const core::AuditReport& report() const;
  /// The five findings blocks of the pinned version.
  [[nodiscard]] Findings findings() const;
  /// Name-level group memberships of `role` (known == false for a name the
  /// pinned version never saw — which a *newer* version may well know).
  [[nodiscard]] RoleMembership group_of(const std::string& role) const;
  /// Names similar to `role` on either axis (type 5), sorted and unique.
  [[nodiscard]] std::vector<std::string> similar_to(const std::string& role) const;

  /// Seconds left before this session's deadline; +inf when unlimited.
  [[nodiscard]] double remaining_seconds() const;

 private:
  friend class AuditService;
  ReadSession(AuditService* service, std::shared_ptr<const core::EngineVersion> version,
              double deadline_s);
  /// Throws DeadlineExpired once the session's budget is gone.
  void check_deadline() const;

  AuditService* service_ = nullptr;  ///< null after move-from
  std::shared_ptr<const core::EngineVersion> version_;
  std::unique_ptr<util::ExecutionContext> deadline_;  ///< heap: the context is immovable
};

class AuditService {
 public:
  /// Creates a fresh store in `dir` from `baseline` (flat or sharded per
  /// `options.shards`), runs the baseline reaudit so version 1 is published
  /// before any reader arrives, and starts the writer thread.
  AuditService(const std::filesystem::path& dir, const core::RbacDataset& baseline,
               const core::AuditOptions& audit_options, ServiceOptions options = {},
               store::StoreOptions store_options = {});

  /// Recovers an existing store from `dir` (layout auto-detected), publishes
  /// the recovered state as the first version, and starts the writer thread.
  AuditService(const std::filesystem::path& dir, const core::AuditOptions& audit_options,
               ServiceOptions options = {}, store::StoreOptions store_options = {});

  AuditService(const AuditService&) = delete;
  AuditService& operator=(const AuditService&) = delete;
  AuditService(AuditService&&) = delete;
  AuditService& operator=(AuditService&&) = delete;

  ~AuditService();  ///< stop()s if still running

  // ---- writer side --------------------------------------------------------

  /// Enqueues a batch, blocking while the queue is full. Returns false once
  /// the service is stopped (the batch was not accepted).
  bool submit(core::RbacDelta delta);

  /// Non-blocking submit: throws Overloaded when the queue is full, returns
  /// false once the service is stopped.
  bool try_submit(core::RbacDelta delta);

  /// Closes the queue, drains it, runs a final reaudit (if any batch landed
  /// since the last one) and a final checkpoint, and joins the writer.
  /// Idempotent. Rethrows nothing — inspect writer_error() afterwards.
  void stop();

  /// Set when the writer thread died on an exception (store I/O failure,
  /// …). The queue is closed at that point; submissions return false.
  [[nodiscard]] std::exception_ptr writer_error() const;

  // ---- reader side --------------------------------------------------------

  /// Admits a read request: pins the current published version and returns
  /// the session. Throws Overloaded when max_readers sessions are already in
  /// flight. `deadline_s` bounds the session (0 = unlimited). Lock-free on
  /// the version pin; the admission counter is one atomic RMW.
  [[nodiscard]] ReadSession begin_read(double deadline_s = 0.0);

  /// The current published version without admission (monitoring use; never
  /// null once the constructor returned).
  [[nodiscard]] std::shared_ptr<const core::EngineVersion> current_version() const;

  /// True while the writer is inside a reaudit — service_test's
  /// ServiceReads.ReadCompletesWhileReauditInFlight uses this to prove reads
  /// complete *during* one.
  [[nodiscard]] bool reaudit_in_flight() const noexcept {
    return reaudit_in_flight_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  friend class ReadSession;

  void start_writer();
  void writer_loop();
  void run_reaudit();
  void run_checkpoint();
  void release_reader() noexcept { readers_in_flight_.fetch_sub(1, std::memory_order_acq_rel); }

  ServiceOptions options_;
  /// Owned by the writer thread after construction; the only cross-thread
  /// access is store_.published(), the spin-locked published-version slot
  /// (core/engine_version.hpp — the critical section is one pointer copy).
  store::Store store_;

  util::BoundedQueue<core::RbacDelta> queue_;
  std::thread writer_;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> reaudit_in_flight_{false};
  std::atomic<std::size_t> readers_in_flight_{0};
  std::size_t reaudits_since_checkpoint_ = 0;  ///< writer thread only
  ServiceStats stats_;

  mutable std::mutex error_mutex_;
  std::exception_ptr writer_error_;
};

}  // namespace rolediet::service
