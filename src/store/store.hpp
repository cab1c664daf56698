// One handle over both durable store layouts: the flat EngineStore
// (engine_store.hpp) and the sharded ShardedEngineStore (sharded_store.hpp).
// create() picks the layout from a shard count and open() reads it from
// disk; after that every call is the same for both, so the CLI and
// service::AuditService, which hold a Store, never know which layout they
// drive. Single-writer like the layouts, except published(), which any
// thread may call.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <variant>

#include "core/engine_version.hpp"
#include "store/engine_store.hpp"
#include "store/sharded_store.hpp"

namespace rolediet::store {

class Store {
 public:
  /// `shards` 0 = the flat layout. Throws StoreError when `dir` already
  /// holds a store of either layout.
  [[nodiscard]] static Store create(const std::filesystem::path& dir,
                                    const core::RbacDataset& dataset, std::size_t shards,
                                    const core::AuditOptions& options,
                                    StoreOptions store_options = {});
  [[nodiscard]] static Store open(const std::filesystem::path& dir,
                                  const core::AuditOptions& options,
                                  StoreOptions store_options = {});

  void apply(const core::RbacDelta& delta);
  /// Publishes the audited state as a version published() hands out.
  core::AuditReport reaudit();
  /// Returns a printable label: the snapshot name, or "generation N".
  std::string checkpoint();

  /// Reads only what construction fixed plus the engine's version slot.
  [[nodiscard]] std::shared_ptr<const core::EngineVersion> published() const;
  /// WAL records (flat), or coordinator plus shard records (sharded).
  [[nodiscard]] std::uint64_t records() const;
  [[nodiscard]] std::uint64_t version() const;
  [[nodiscard]] std::uint64_t audits() const;
  [[nodiscard]] core::RbacDataset snapshot() const;
  /// 0 for the flat layout.
  [[nodiscard]] std::size_t shards() const noexcept;

  /// What open() did, as the `recover:` lines the CLI prints.
  [[nodiscard]] std::string recovery_text() const;
  /// Records open() replayed: WAL records, or intern plus edge records.
  [[nodiscard]] std::uint64_t replayed_records() const noexcept;

 private:
  using Layout = std::variant<EngineStore, ShardedEngineStore>;
  explicit Store(Layout layout) : layout_(std::move(layout)) {}

  Layout layout_;
};

}  // namespace rolediet::store
