#include "service/audit_service.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "util/timer.hpp"

namespace rolediet::service {

// ---- ReadSession -----------------------------------------------------------

ReadSession::ReadSession(AuditService* service,
                         std::shared_ptr<const core::EngineVersion> version, double deadline_s)
    : service_(service), version_(std::move(version)) {
  if (deadline_s > 0.0) deadline_ = std::make_unique<util::ExecutionContext>(deadline_s);
}

ReadSession::ReadSession(ReadSession&& other) noexcept
    : service_(std::exchange(other.service_, nullptr)),
      version_(std::move(other.version_)),
      deadline_(std::move(other.deadline_)) {}

ReadSession::~ReadSession() {
  if (service_ != nullptr) service_->release_reader();
}

void ReadSession::check_deadline() const {
  if (deadline_ && deadline_->expired())
    throw DeadlineExpired("read session deadline expired");
}

const core::EngineVersion& ReadSession::version() const {
  check_deadline();
  return *version_;
}

std::shared_ptr<const core::EngineVersion> ReadSession::version_handle() const {
  check_deadline();
  return version_;
}

const core::AuditReport& ReadSession::report() const {
  check_deadline();
  return version_->report;
}

Findings ReadSession::findings() const {
  check_deadline();
  const core::AuditReport& r = version_->report;
  return Findings{r.structural, r.same_user_groups, r.same_permission_groups,
                  r.similar_user_groups, r.similar_permission_groups};
}

namespace {

/// Co-members of `role` in `groups`, as names (the role itself excluded).
/// A role appears in at most one group per axis (groups partition).
void append_co_members(const core::RoleGroups& groups, core::Id role,
                       const core::RbacDataset& dataset, std::vector<std::string>& out) {
  for (const auto& group : groups.groups) {
    if (std::find(group.begin(), group.end(), static_cast<std::size_t>(role)) == group.end())
      continue;
    for (std::size_t member : group) {
      if (member != static_cast<std::size_t>(role))
        out.push_back(dataset.role_name(static_cast<core::Id>(member)));
    }
    return;
  }
}

}  // namespace

RoleMembership ReadSession::group_of(const std::string& role) const {
  check_deadline();
  RoleMembership membership;
  const core::RbacDataset& dataset = *version_->dataset;
  const std::optional<core::Id> id = dataset.find_role(role);
  if (!id) return membership;  // unknown *in this version* — a newer one may know it
  membership.known = true;
  const core::AuditReport& r = version_->report;
  append_co_members(r.same_user_groups, *id, dataset, membership.same_users);
  append_co_members(r.same_permission_groups, *id, dataset, membership.same_permissions);
  append_co_members(r.similar_user_groups, *id, dataset, membership.similar_users);
  append_co_members(r.similar_permission_groups, *id, dataset, membership.similar_permissions);
  return membership;
}

std::vector<std::string> ReadSession::similar_to(const std::string& role) const {
  RoleMembership membership = group_of(role);
  std::vector<std::string> out = std::move(membership.similar_users);
  out.insert(out.end(), membership.similar_permissions.begin(),
             membership.similar_permissions.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double ReadSession::remaining_seconds() const {
  if (!deadline_) return std::numeric_limits<double>::infinity();
  return deadline_->remaining_seconds();
}

// ---- AuditService ----------------------------------------------------------

namespace {

ServiceOptions validate(ServiceOptions options) {
  if (options.reaudit_every == 0)
    throw std::invalid_argument("service: reaudit_every must be >= 1");
  if (options.max_queue == 0) throw std::invalid_argument("service: max_queue must be >= 1");
  if (options.max_readers == 0)
    throw std::invalid_argument("service: max_readers must be >= 1");
  return options;
}

/// Adds to a duration counter only the writer thread writes, so a relaxed
/// load + store loses nothing.
void add_seconds(std::atomic<double>& total, double seconds) {
  total.store(total.load(std::memory_order_relaxed) + seconds, std::memory_order_relaxed);
}

}  // namespace

AuditService::AuditService(const std::filesystem::path& dir, const core::RbacDataset& baseline,
                           const core::AuditOptions& audit_options, ServiceOptions options,
                           store::StoreOptions store_options)
    : options_(validate(options)),
      store_(store::Store::create(dir, baseline, options_.shards, audit_options, store_options)),
      queue_(options_.max_queue) {
  start_writer();
}

AuditService::AuditService(const std::filesystem::path& dir,
                           const core::AuditOptions& audit_options, ServiceOptions options,
                           store::StoreOptions store_options)
    : options_(validate(options)),
      store_(store::Store::open(dir, audit_options, store_options)),
      queue_(options_.max_queue) {
  options_.shards = store_.shards();
  start_writer();
}

void AuditService::start_writer() {
  // Publish the baseline synchronously: once the constructor returns, a
  // reader is guaranteed a non-null version, recovered or fresh.
  run_reaudit();
  writer_ = std::thread([this] { writer_loop(); });
}

AuditService::~AuditService() { stop(); }

void AuditService::stop() {
  if (stopped_.exchange(true)) {
    if (writer_.joinable()) writer_.join();
    return;
  }
  queue_.close();
  if (writer_.joinable()) writer_.join();
}

std::exception_ptr AuditService::writer_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return writer_error_;
}

bool AuditService::submit(core::RbacDelta delta) { return queue_.push(std::move(delta)); }

bool AuditService::try_submit(core::RbacDelta delta) {
  if (queue_.closed()) return false;
  if (!queue_.try_push(std::move(delta))) {
    if (queue_.closed()) return false;
    throw Overloaded("service: writer queue full");
  }
  return true;
}

ReadSession AuditService::begin_read(double deadline_s) {
  const std::size_t in_flight = readers_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (in_flight >= options_.max_readers) {
    readers_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.reads_rejected.fetch_add(1, std::memory_order_relaxed);
    throw Overloaded("service: max in-flight readers reached");
  }
  stats_.reads_admitted.fetch_add(1, std::memory_order_relaxed);
  return ReadSession(this, current_version(), deadline_s);
}

std::shared_ptr<const core::EngineVersion> AuditService::current_version() const {
  return store_.published();
}

void AuditService::writer_loop() {
  try {
    core::RbacDelta delta;
    std::size_t since_reaudit = 0;
    while (queue_.pop(delta)) {
      store_.apply(delta);
      stats_.batches_applied.fetch_add(1, std::memory_order_relaxed);
      stats_.mutations_applied.fetch_add(delta.size(), std::memory_order_relaxed);
      if (++since_reaudit >= options_.reaudit_every) {
        run_reaudit();
        since_reaudit = 0;
      }
    }
    // Queue closed and drained: make the final batches visible and leave the
    // store cheap to recover, whatever the periodic cadences were.
    if (since_reaudit > 0) run_reaudit();
    run_checkpoint();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    writer_error_ = std::current_exception();
    queue_.close();  // reject further submissions; stop() still joins cleanly
  }
}

void AuditService::run_reaudit() {
  util::Stopwatch watch;
  reaudit_in_flight_.store(true, std::memory_order_release);
  (void)store_.reaudit();
  reaudit_in_flight_.store(false, std::memory_order_release);
  const double seconds = watch.seconds();
  stats_.versions_published.fetch_add(1, std::memory_order_relaxed);
  add_seconds(stats_.reaudit_seconds, seconds);
  add_seconds(stats_.writer_stall_seconds, seconds);
  if (options_.checkpoint_every > 0 && ++reaudits_since_checkpoint_ >= options_.checkpoint_every) {
    run_checkpoint();
  }
}

void AuditService::run_checkpoint() {
  util::Stopwatch watch;
  // Flat: snapshots the last *published* version at its publish-time WAL
  // position (engine_store.hpp). Sharded: freezes live rows — safe exactly
  // because this runs on the writer thread between batches.
  (void)store_.checkpoint();
  reaudits_since_checkpoint_ = 0;
  const double seconds = watch.seconds();
  stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  add_seconds(stats_.checkpoint_seconds, seconds);
  add_seconds(stats_.writer_stall_seconds, seconds);
}

}  // namespace rolediet::service
