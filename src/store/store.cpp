#include "store/store.hpp"

#include <sstream>

namespace rolediet::store {

namespace fs = std::filesystem;

Store Store::create(const fs::path& dir, const core::RbacDataset& dataset, std::size_t shards,
                    const core::AuditOptions& options, StoreOptions store_options) {
  if (shards == 0) return Store(EngineStore::create(dir, dataset, options, store_options));
  return Store(ShardedEngineStore::create(dir, dataset, shards, options, store_options));
}

Store Store::open(const fs::path& dir, const core::AuditOptions& options,
                  StoreOptions store_options) {
  if (ShardedEngineStore::is_sharded_store(dir))
    return Store(ShardedEngineStore::open(dir, options, store_options));
  return Store(EngineStore::open(dir, options, store_options));
}

void Store::apply(const core::RbacDelta& delta) {
  std::visit([&](auto& layout) { layout.apply(delta); }, layout_);
}

core::AuditReport Store::reaudit() {
  return std::visit([](auto& layout) { return layout.reaudit(); }, layout_);
}

std::string Store::checkpoint() {
  if (auto* flat = std::get_if<EngineStore>(&layout_))
    return flat->checkpoint().filename().string();
  return "generation " + std::to_string(std::get<ShardedEngineStore>(layout_).checkpoint());
}

std::shared_ptr<const core::EngineVersion> Store::published() const {
  return std::visit([](const auto& layout) { return layout.engine().published(); }, layout_);
}

std::uint64_t Store::records() const {
  if (const auto* flat = std::get_if<EngineStore>(&layout_)) return flat->records();
  const ShardedEngineStore& sharded = std::get<ShardedEngineStore>(layout_);
  std::uint64_t total = sharded.records();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) total += sharded.shard_records(s);
  return total;
}

std::uint64_t Store::version() const {
  return std::visit([](const auto& layout) { return layout.engine().version(); }, layout_);
}

std::uint64_t Store::audits() const {
  return std::visit([](const auto& layout) { return layout.engine().audits(); }, layout_);
}

core::RbacDataset Store::snapshot() const {
  return std::visit([](const auto& layout) { return layout.engine().snapshot(); }, layout_);
}

std::size_t Store::shards() const noexcept {
  const auto* sharded = std::get_if<ShardedEngineStore>(&layout_);
  return sharded ? sharded->num_shards() : 0;
}

std::string Store::recovery_text() const {
  std::ostringstream out;
  const TailRepair* repair = nullptr;
  bool caches_dropped = false;
  if (const auto* flat = std::get_if<EngineStore>(&layout_)) {
    const RecoveryInfo& info = flat->recovery();
    out << "recover: snapshot " << info.snapshot_path.filename().string() << " ("
        << info.snapshot_records << " records baked in)"
        << (info.used_fallback_snapshot ? " [newest snapshot invalid: fell back]" : "") << "\n";
    out << "recover: replayed " << info.replayed_records << " WAL records -> "
        << info.total_records << " committed records total\n";
    repair = &info;
    caches_dropped = info.caches_dropped;
  } else {
    const ShardedRecoveryInfo& info = std::get<ShardedEngineStore>(layout_).recovery();
    out << "recover: sharded checkpoint " << info.checkpoint_id << " across " << shards()
        << " shards (" << info.manifest_coord_records << " coordinator records baked in)\n";
    out << "recover: replayed " << info.commits_applied << " commits -> "
        << info.replayed_interns << " interns + " << info.replayed_edges << " edge records\n";
    if (info.discarded_records > 0)
      out << "recover: discarded " << info.discarded_records << " uncommitted tail records\n";
    repair = &info;
  }
  if (repair->truncated_bytes > 0)
    out << "recover: truncated " << repair->truncated_bytes << " torn tail bytes\n";
  if (repair->dropped_torn_segment) out << "recover: dropped torn-header final segment\n";
  if (caches_dropped)
    out << "recover: audit options changed since checkpoint; cached verdicts dropped\n";
  return out.str();
}

std::uint64_t Store::replayed_records() const noexcept {
  if (const auto* flat = std::get_if<EngineStore>(&layout_))
    return flat->recovery().replayed_records;
  const ShardedRecoveryInfo& info = std::get<ShardedEngineStore>(layout_).recovery();
  return info.replayed_interns + info.replayed_edges;
}

}  // namespace rolediet::store
