#include "cli/cli.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "core/consolidation.hpp"
#include "core/engine.hpp"
#include "core/framework.hpp"
#include "core/remediation.hpp"
#include "core/version.hpp"
#include "gen/adversarial.hpp"
#include "gen/churn.hpp"
#include "gen/matrix_generator.hpp"
#include "gen/org_simulator.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "io/json_writer.hpp"
#include "io/report_csv.hpp"
#include "linalg/kernels/kernels.hpp"
#include "mining/miner.hpp"
#include "core/sharded_engine.hpp"
#include "service/audit_service.hpp"
#include "store/engine_store.hpp"
#include "store/sharded_store.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace rolediet::cli {

namespace {

/// Tiny argument cursor. Owns a copy of the args so flag/option extraction
/// can splice freely; positional arguments are consumed front-to-back.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  [[nodiscard]] bool done() const noexcept { return index_ >= args_.size(); }
  [[nodiscard]] const std::string& peek() const { return args_[index_]; }
  const std::string& take() { return args_[index_++]; }

  /// Consumes `flag` if present anywhere ahead; order-insensitive flags.
  bool take_flag(const std::string& flag) {
    for (std::size_t i = index_; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Consumes `--key VALUE` if present; returns the value.
  std::optional<std::string> take_option(const std::string& key) {
    for (std::size_t i = index_; i + 1 < args_.size(); ++i) {
      if (args_[i] == key) {
        std::string value = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i + 2));
        return value;
      }
    }
    return std::nullopt;
  }

 private:
  std::vector<std::string> args_;
  std::size_t index_ = 0;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::size_t parse_size(const std::string& text, const std::string& what) {
  try {
    // stoull accepts and wraps negative input; reject it up front.
    if (text.empty() || text[0] == '-') throw std::invalid_argument(text);
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    throw UsageError("invalid " + what + ": '" + text + "'");
  }
}

double parse_double(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    // stod happily parses "nan" and "inf" (and overflows to inf past
    // DBL_MAX), which sail through range checks like `< 0.0 || > 1.0` —
    // NaN compares false against everything. No numeric option here means
    // anything non-finite, so reject it at the helper.
    if (!std::isfinite(value)) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw UsageError("invalid " + what + ": '" + text + "'");
  }
}

core::Method parse_method(const std::string& name) {
  if (name == "role-diet") return core::Method::kRoleDiet;
  if (name == "exact-dbscan") return core::Method::kExactDbscan;
  if (name == "approx-hnsw") return core::Method::kApproxHnsw;
  if (name == "approx-minhash") return core::Method::kApproxMinhash;
  throw UsageError("unknown method '" + name +
                   "' (expected role-diet, exact-dbscan, approx-hnsw, or approx-minhash)");
}

linalg::RowBackend parse_backend(const std::string& name) {
  if (name == "auto") return linalg::RowBackend::kAuto;
  if (name == "dense") return linalg::RowBackend::kDense;
  if (name == "sparse") return linalg::RowBackend::kSparse;
  throw UsageError("unknown backend '" + name + "' (expected auto, dense, or sparse)");
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
}

/// `--shards N` opt-in for store-creating verbs and `audit`. Absent means the
/// classic single-engine path; present (N >= 1) selects the sharded layout.
std::optional<std::size_t> parse_shards(Args& args) {
  const std::optional<std::string> value = args.take_option("--shards");
  if (!value) return std::nullopt;
  const std::size_t shards = parse_size(*value, "--shards");
  if (shards == 0) throw UsageError("--shards must be >= 1");
  return shards;
}

// ----------------------------------------------------------------- audit ---

/// Audit-option flags shared by `audit` and `replay`.
core::AuditOptions parse_audit_options(Args& args) {
  core::AuditOptions options;
  if (auto method = args.take_option("--method")) options.method = parse_method(*method);
  if (auto threshold = args.take_option("--threshold")) {
    if (!threshold->empty() && threshold->front() == '-')
      throw UsageError("--threshold must be >= 0 (got '" + *threshold + "')");
    options.similarity_threshold = parse_size(*threshold, "--threshold");
  }
  if (auto jaccard = args.take_option("--jaccard")) {
    options.similarity_mode = core::SimilarityMode::kJaccard;
    options.jaccard_dissimilarity = parse_double(*jaccard, "--jaccard");
    if (options.jaccard_dissimilarity < 0.0 || options.jaccard_dissimilarity > 1.0)
      throw UsageError("--jaccard must be within [0, 1]");
  }
  if (auto budget = args.take_option("--budget")) {
    options.time_budget_s = parse_double(*budget, "--budget");
    if (!std::isfinite(options.time_budget_s) || options.time_budget_s < 0.0)
      throw UsageError("--budget must be >= 0 seconds (0 = unlimited; got '" + *budget + "')");
  }
  if (auto threads = args.take_option("--threads"))
    options.threads = parse_size(*threads, "--threads");
  if (auto backend = args.take_option("--backend")) options.backend = parse_backend(*backend);
  return options;
}

int cmd_audit(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const std::optional<std::size_t> shards = parse_shards(args);
  const std::optional<std::string> json_path = args.take_option("--json");
  const std::optional<std::string> csv_path = args.take_option("--csv");

  if (args.done()) throw UsageError("audit: missing dataset directory");
  const std::string dir = args.take();
  if (!args.done()) throw UsageError("audit: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);
  // --shards runs the range-partitioned engine; findings are byte-identical
  // to the single-engine audit for every method except approx-hnsw (work
  // counters legitimately differ — see core/sharded_engine.hpp).
  core::AuditReport report;
  if (shards) {
    core::ShardedEngine engine(dataset, *shards, options);
    report = engine.reaudit();
  } else {
    report = core::audit(dataset, options);
  }
  out << report.to_text();

  if (json_path) write_text_file(*json_path, io::report_to_json(report, dataset));
  if (csv_path) write_text_file(*csv_path, io::report_to_csv(report, dataset));
  return 0;
}

// ----------------------------------------------------------------- store ---

store::StoreOptions parse_store_options(Args& args) {
  store::StoreOptions store_options;
  if (auto fsync = args.take_option("--fsync")) {
    if (*fsync == "record") {
      store_options.fsync = store::FsyncPolicy::kEveryRecord;
    } else if (*fsync == "batch") {
      store_options.fsync = store::FsyncPolicy::kEveryBatch;
    } else if (*fsync == "none") {
      store_options.fsync = store::FsyncPolicy::kNone;
    } else {
      throw UsageError("unknown --fsync policy '" + *fsync +
                       "' (expected record, batch, or none)");
    }
  }
  return store_options;
}

void print_recovery(const store::RecoveryInfo& info, std::ostream& out) {
  out << "recover: snapshot " << info.snapshot_path.filename().string() << " ("
      << info.snapshot_records << " records baked in)"
      << (info.used_fallback_snapshot ? " [newest snapshot invalid: fell back]" : "") << "\n";
  out << "recover: replayed " << info.replayed_records << " WAL records -> "
      << info.total_records << " committed records total\n";
  if (info.truncated_bytes > 0)
    out << "recover: truncated " << info.truncated_bytes << " torn tail bytes\n";
  if (info.dropped_torn_segment) out << "recover: dropped torn-header final segment\n";
  if (info.caches_dropped)
    out << "recover: audit options changed since checkpoint; cached verdicts dropped\n";
}

void print_recovery(const store::ShardedRecoveryInfo& info, std::size_t shards,
                    std::ostream& out) {
  out << "recover: sharded checkpoint " << info.checkpoint_id << " across " << shards
      << " shards (" << info.manifest_coord_records << " coordinator records baked in)\n";
  out << "recover: replayed " << info.commits_applied << " commits -> "
      << info.replayed_interns << " interns + " << info.replayed_edges << " edge records\n";
  if (info.discarded_records > 0)
    out << "recover: discarded " << info.discarded_records << " uncommitted tail records\n";
  if (info.truncated_bytes > 0)
    out << "recover: truncated " << info.truncated_bytes << " torn tail bytes\n";
  if (info.dropped_torn_segment) out << "recover: dropped torn-header final segment\n";
}

/// One durable engine session behind either store layout. All four store
/// verbs (`replay --store`, `churn`, `checkpoint`, `recover`) funnel through
/// create()/open() so layout selection, recovery reporting, and error
/// context stay uniform: create() picks the layout from --shards, open()
/// auto-detects whatever is on disk, and every StoreError is rethrown with
/// the store directory attached.
class StoreSession {
 public:
  static StoreSession create(const std::string& dir, const core::RbacDataset& dataset,
                             std::optional<std::size_t> shards,
                             const core::AuditOptions& options,
                             const store::StoreOptions& store_options) {
    StoreSession session;
    try {
      if (shards) {
        session.sharded_.emplace(
            store::ShardedEngineStore::create(dir, dataset, *shards, options, store_options));
      } else {
        session.flat_.emplace(store::EngineStore::create(dir, dataset, options, store_options));
      }
    } catch (const store::StoreError& e) {
      throw std::runtime_error("store " + dir + ": " + e.what());
    }
    return session;
  }

  static StoreSession open(const std::string& dir, const core::AuditOptions& options,
                           const store::StoreOptions& store_options, std::ostream& out) {
    StoreSession session;
    try {
      if (store::ShardedEngineStore::is_sharded_store(dir)) {
        session.sharded_.emplace(store::ShardedEngineStore::open(dir, options, store_options));
        print_recovery(session.sharded_->recovery(), session.sharded_->num_shards(), out);
      } else {
        session.flat_.emplace(store::EngineStore::open(dir, options, store_options));
        print_recovery(session.flat_->recovery(), out);
      }
    } catch (const store::StoreError& e) {
      throw std::runtime_error("store " + dir + ": " + e.what());
    }
    return session;
  }

  /// "durable store at DIR (...)" suffix describing the layout.
  [[nodiscard]] std::string layout() const {
    return sharded_ ? std::to_string(sharded_->num_shards()) + " shards" : "1 engine";
  }

  void apply(const core::RbacDelta& delta) {
    if (sharded_) {
      sharded_->apply(delta);
    } else {
      flat_->apply(delta);
    }
  }

  /// Durable records so far — WAL records for the flat layout, coordinator +
  /// shard records for the sharded one (both monotone per committed batch).
  [[nodiscard]] std::uint64_t records() const {
    if (!sharded_) return flat_->records();
    std::uint64_t total = sharded_->records();
    for (std::size_t s = 0; s < sharded_->num_shards(); ++s)
      total += sharded_->shard_records(s);
    return total;
  }

  /// Checkpoints and returns a printable label of the new generation.
  std::string checkpoint() {
    if (sharded_) return "generation " + std::to_string(sharded_->checkpoint());
    return flat_->checkpoint().filename().string();
  }

  void print_baseline(std::ostream& out) const {
    if (sharded_) {
      out << "checkpoint: baseline generation 0 across " << sharded_->num_shards()
          << " shards\n";
    } else {
      out << "checkpoint: baseline snapshot "
          << flat_->recovery().snapshot_path.filename().string() << " at record 0\n";
    }
  }

  // Engine facade: the handful of calls the verbs actually make. Reaudits go
  // through the *store* wrappers so versions are published and checkpoints
  // snapshot the published version (engine_store.hpp), not the live writer.
  [[nodiscard]] core::AuditReport reaudit() {
    return sharded_ ? sharded_->reaudit() : flat_->reaudit();
  }
  [[nodiscard]] std::uint64_t version() const {
    return sharded_ ? sharded_->engine().version() : flat_->engine().version();
  }
  [[nodiscard]] std::uint64_t audits() const {
    return sharded_ ? sharded_->engine().audits() : flat_->engine().audits();
  }
  [[nodiscard]] core::RbacDataset snapshot() const {
    return sharded_ ? sharded_->engine().snapshot() : flat_->engine().snapshot();
  }

 private:
  StoreSession() = default;
  std::optional<store::EngineStore> flat_;
  std::optional<store::ShardedEngineStore> sharded_;
};

// ---------------------------------------------------------------- replay ---

int cmd_replay(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const store::StoreOptions store_options = parse_store_options(args);
  std::size_t every = 0;  // 0 = one re-audit at end of journal
  if (auto value = args.take_option("--every")) {
    every = parse_size(*value, "--every");
    if (every == 0) throw UsageError("--every must be >= 1");
  }
  const std::optional<std::string> store_dir = args.take_option("--store");
  const std::optional<std::size_t> shards = parse_shards(args);
  if (shards && !store_dir) throw UsageError("replay: --shards requires --store");
  std::size_t checkpoint_every = 0;  // 0 = one checkpoint at end of journal
  if (auto value = args.take_option("--checkpoint-every")) {
    if (!store_dir) throw UsageError("--checkpoint-every requires --store");
    checkpoint_every = parse_size(*value, "--checkpoint-every");
    if (checkpoint_every == 0) throw UsageError("--checkpoint-every must be >= 1");
  }
  const std::optional<std::string> json_path = args.take_option("--json");

  if (args.done()) throw UsageError("replay: missing dataset directory");
  const std::string dir = args.take();
  if (args.done()) throw UsageError("replay: missing journal file");
  const std::string journal_path = args.take();
  if (!args.done()) throw UsageError("replay: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);

  // With --store the engine lives inside a durable store: every batch is
  // WAL-logged before it is applied, and checkpoints collapse the log.
  std::optional<StoreSession> durable;
  std::optional<core::AuditEngine> local;
  if (store_dir) {
    durable.emplace(StoreSession::create(*store_dir, dataset, shards, options, store_options));
    out << "replay: durable store at " << *store_dir << " (" << durable->layout() << ", fsync "
        << store::to_string(store_options.fsync) << ")\n";
  } else {
    local.emplace(dataset, options);
  }
  auto reaudit = [&] { return durable ? durable->reaudit() : local->reaudit(); };
  auto version = [&] { return durable ? durable->version() : local->version(); };

  // Baseline pass: the engine's first reaudit is the full batch audit of the
  // starting snapshot; later passes reuse its artifacts.
  core::AuditReport report = reaudit();
  out << "replay: baseline audit of " << dir << " (version " << version() << ")\n";
  out << report.to_text();

  std::ifstream journal(journal_path, std::ios::binary);
  if (!journal) throw std::runtime_error("cannot open journal " + journal_path);
  io::JournalReader reader(journal);
  core::Mutation mutation;
  core::RbacDelta batch;
  std::size_t applied = 0;
  std::uint64_t last_checkpoint = 0;
  auto reaudit_batch = [&] {
    if (durable) {
      durable->apply(batch);
    } else {
      local->apply(batch);
    }
    applied += batch.size();
    batch.mutations.clear();
    util::Stopwatch watch;
    report = reaudit();
    out << "replay: " << applied << " mutations applied, version " << version()
        << ", dirty frontier re-audited in " << util::format_duration(watch.seconds()) << "\n";
    if (durable && checkpoint_every != 0 &&
        durable->records() - last_checkpoint >= checkpoint_every) {
      (void)durable->checkpoint();
      last_checkpoint = durable->records();
      out << "replay: checkpoint at " << last_checkpoint << " records\n";
    }
  };
  while (reader.next(mutation)) {
    batch.mutations.push_back(std::move(mutation));
    if (every != 0 && batch.size() >= every) reaudit_batch();
  }
  if (!batch.empty() || applied == 0) reaudit_batch();

  const std::uint64_t audits = durable ? durable->audits() : local->audits();
  out << "replay: journal exhausted after " << applied << " mutations (" << audits
      << " audits)\n";
  if (durable) {
    out << "replay: final checkpoint " << durable->checkpoint() << " (" << durable->records()
        << " records)\n";
  }
  out << report.to_text();
  if (json_path) {
    const core::RbacDataset snap = durable ? durable->snapshot() : local->snapshot();
    write_text_file(*json_path, io::report_to_json(report, snap));
  }
  return 0;
}

// ----------------------------------------------------------------- churn ---

/// One-line findings summary for the per-quarter churn progress output.
std::string findings_summary(const core::AuditReport& r) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "standalone %zu/%zu/%zu  one-sided %zu/%zu  single %zu/%zu  "
                "dup-groups %zu  similar-groups %zu",
                r.structural.standalone_users.size(), r.structural.standalone_roles.size(),
                r.structural.standalone_permissions.size(),
                r.structural.roles_without_users.size(),
                r.structural.roles_without_permissions.size(),
                r.structural.single_user_roles.size(),
                r.structural.single_permission_roles.size(),
                r.same_user_groups.group_count() + r.same_permission_groups.group_count(),
                r.similar_user_groups.group_count() +
                    r.similar_permission_groups.group_count());
  return line;
}

int cmd_churn(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const store::StoreOptions store_options = parse_store_options(args);
  const std::optional<std::size_t> shards = parse_shards(args);

  gen::ChurnConfig config;
  if (auto seed = args.take_option("--seed")) config.seed = parse_size(*seed, "--seed");
  if (auto employees = args.take_option("--employees"))
    config.initial_employees = parse_size(*employees, "--employees");
  if (auto years = args.take_option("--years")) {
    config.years = parse_size(*years, "--years");
    if (config.years == 0) throw UsageError("--years must be >= 1");
  }
  const std::optional<std::string> journal_path = args.take_option("--journal");

  // Journal-only mode: emit the stream and stop (corpus regeneration).
  if (args.take_flag("--journal-only")) {
    if (!journal_path) throw UsageError("churn: --journal-only requires --journal FILE");
    if (!args.done()) throw UsageError("churn: unexpected argument '" + args.peek() + "'");
    std::ofstream journal(*journal_path, std::ios::binary);
    if (!journal) throw std::runtime_error("cannot write journal " + *journal_path);
    const gen::ChurnStats stats = gen::write_churn_journal(journal, config);
    out << "churn: " << stats.mutations << " mutations over " << stats.days << " days ("
        << config.years << " years, seed " << config.seed << ") -> " << *journal_path
        << "\n";
    out << "churn: " << stats.hires << " hires, " << stats.departures << " departures, "
        << stats.transfers << " transfers, " << stats.provisions << " provisions, "
        << stats.tenants_onboarded << " tenants, " << stats.layoff_days
        << " layoff days\n";
    return 0;
  }

  std::size_t reaudit_days = 91;  // quarterly
  if (auto value = args.take_option("--reaudit-days")) {
    reaudit_days = parse_size(*value, "--reaudit-days");
    if (reaudit_days == 0) throw UsageError("--reaudit-days must be >= 1");
  }
  std::size_t checkpoint_days = 91;
  if (auto value = args.take_option("--checkpoint-days")) {
    checkpoint_days = parse_size(*value, "--checkpoint-days");
    if (checkpoint_days == 0) throw UsageError("--checkpoint-days must be >= 1");
  }
  if (args.done()) throw UsageError("churn: missing store directory");
  const std::string store_dir = args.take();
  if (!args.done()) throw UsageError("churn: unexpected argument '" + args.peek() + "'");

  std::optional<std::ofstream> journal;
  if (journal_path) {
    journal.emplace(*journal_path, std::ios::binary);
    if (!*journal) throw std::runtime_error("cannot write journal " + *journal_path);
  }

  // The stream starts from an empty dataset (day 0 bootstraps the org), so
  // the store's baseline snapshot is empty and the whole history is WAL.
  gen::ChurnSimulator sim(config);
  StoreSession durable =
      StoreSession::create(store_dir, core::RbacDataset{}, shards, options, store_options);
  out << "churn: simulating " << config.initial_employees << " employees over "
      << config.years << " years (seed " << config.seed << ") into " << store_dir << " ("
      << durable.layout() << ")\n";

  core::AuditReport report;
  while (!sim.done()) {
    const std::size_t day = sim.day();
    const core::RbacDelta delta = sim.next_day();
    if (journal) io::write_journal(*journal, delta);
    if (!delta.empty()) durable.apply(delta);
    const bool last = sim.done();
    if (day % reaudit_days == 0 || last) {
      util::Stopwatch watch;
      report = durable.reaudit();
      out << "churn: day " << day << " (" << gen::to_string(sim.phase_of(day)) << "), "
          << durable.records() << " records, version " << durable.version()
          << ", re-audit " << util::format_duration(watch.seconds()) << ": "
          << findings_summary(report) << "\n";
    }
    if (day % checkpoint_days == 0 || last) {
      out << "churn: checkpoint " << durable.checkpoint() << " (" << durable.records()
          << " records)\n";
    }
  }
  const gen::ChurnStats& stats = sim.stats();
  out << "churn: done — " << stats.mutations << " mutations, " << stats.hires << " hires, "
      << stats.departures << " departures, " << stats.transfers << " transfers, "
      << stats.provisions << " provisions, " << stats.tenants_onboarded << " tenants, "
      << stats.layoff_days << " layoff days\n";
  out << report.to_text();
  return 0;
}

// ------------------------------------------------------ checkpoint/recover ---

int cmd_checkpoint(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const store::StoreOptions store_options = parse_store_options(args);
  const std::optional<std::size_t> shards = parse_shards(args);
  if (args.done()) throw UsageError("checkpoint: missing dataset directory");
  const std::string dir = args.take();
  if (args.done()) throw UsageError("checkpoint: missing store directory");
  const std::string store_dir = args.take();
  if (!args.done()) throw UsageError("checkpoint: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);
  const StoreSession durable =
      StoreSession::create(store_dir, dataset, shards, options, store_options);
  out << "checkpoint: initialized store " << store_dir << " from " << dir << " ("
      << dataset.num_users() << " users, " << dataset.num_roles() << " roles, "
      << dataset.num_permissions() << " permissions)\n";
  durable.print_baseline(out);
  return 0;
}

int cmd_recover(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const store::StoreOptions store_options = parse_store_options(args);
  const std::optional<std::string> json_path = args.take_option("--json");
  if (args.done()) throw UsageError("recover: missing store directory");
  const std::string store_dir = args.take();
  if (!args.done()) throw UsageError("recover: unexpected argument '" + args.peek() + "'");

  StoreSession durable = StoreSession::open(store_dir, options, store_options, out);
  const core::AuditReport report = durable.reaudit();
  out << report.to_text();
  if (json_path) write_text_file(*json_path, io::report_to_json(report, durable.snapshot()));
  return 0;
}

// ----------------------------------------------------------------- serve ---

/// A name-based trace of `count` effective single mutations (alternating
/// revocations of existing edges and fresh additions), validated against a
/// scratch engine so no-ops don't count. Same recipe as the tests' build_trace
/// (tests/fig3_workload.hpp).
std::vector<core::Mutation> build_serve_trace(const core::RbacDataset& base, std::size_t count,
                                              util::Xoshiro256& rng) {
  std::vector<std::pair<core::Id, core::Id>> user_edges, perm_edges;
  for (std::size_t r = 0; r < base.num_roles(); ++r) {
    for (std::uint32_t u : base.ruam().row(r))
      user_edges.emplace_back(static_cast<core::Id>(r), u);
    for (std::uint32_t p : base.rpam().row(r))
      perm_edges.emplace_back(static_cast<core::Id>(r), p);
  }
  const auto users = static_cast<core::Id>(base.num_users());
  const auto perms = static_cast<core::Id>(base.num_permissions());
  const auto roles = static_cast<core::Id>(base.num_roles());
  if (roles == 0 || users == 0 || perms == 0)
    throw UsageError("serve: dataset needs at least one user, role, and permission");

  core::AuditEngine scratch(base, {});
  std::vector<core::Mutation> trace;
  while (trace.size() < count) {
    const std::uint64_t before = scratch.version();
    core::RbacDelta one;
    switch (trace.size() % 4) {
      case 0:
        if (!user_edges.empty()) {
          const auto& [r, u] = user_edges[rng.bounded(user_edges.size())];
          one.revoke_user(base.role_name(r), base.user_name(u));
          break;
        }
        [[fallthrough]];
      case 1:
        one.assign_user(base.role_name(static_cast<core::Id>(rng.bounded(roles))),
                        base.user_name(static_cast<core::Id>(rng.bounded(users))));
        break;
      case 2:
        if (!perm_edges.empty()) {
          const auto& [r, p] = perm_edges[rng.bounded(perm_edges.size())];
          one.revoke_permission(base.role_name(r), base.permission_name(p));
          break;
        }
        [[fallthrough]];
      default:
        one.grant_permission(base.role_name(static_cast<core::Id>(rng.bounded(roles))),
                             base.permission_name(static_cast<core::Id>(rng.bounded(perms))));
        break;
    }
    scratch.apply(one);
    if (scratch.version() != before) trace.push_back(std::move(one.mutations.front()));
  }
  return trace;
}

int cmd_serve(Args& args, std::ostream& out) {
  const core::AuditOptions options = parse_audit_options(args);
  const store::StoreOptions store_options = parse_store_options(args);
  const std::optional<std::size_t> shards = parse_shards(args);

  service::ServiceOptions service_options;
  if (shards) service_options.shards = *shards;
  if (auto value = args.take_option("--reaudit-every")) {
    service_options.reaudit_every = parse_size(*value, "--reaudit-every");
    if (service_options.reaudit_every == 0) throw UsageError("--reaudit-every must be >= 1");
  }
  if (auto value = args.take_option("--checkpoint-every"))
    service_options.checkpoint_every = parse_size(*value, "--checkpoint-every");
  std::size_t batches = 32;
  if (auto value = args.take_option("--batches")) {
    batches = parse_size(*value, "--batches");
    if (batches == 0) throw UsageError("--batches must be >= 1");
  }
  std::size_t batch_size = 16;
  if (auto value = args.take_option("--batch-size")) {
    batch_size = parse_size(*value, "--batch-size");
    if (batch_size == 0) throw UsageError("--batch-size must be >= 1");
  }
  std::size_t readers = 2;
  if (auto value = args.take_option("--readers")) readers = parse_size(*value, "--readers");

  if (args.done()) throw UsageError("serve: missing dataset directory");
  const std::string dir = args.take();
  if (args.done()) throw UsageError("serve: missing store directory");
  const std::string store_dir = args.take();
  if (!args.done()) throw UsageError("serve: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);
  util::Xoshiro256 rng(0x5E12E);
  const std::vector<core::Mutation> trace =
      build_serve_trace(dataset, batches * batch_size, rng);

  service::AuditService svc(store_dir, dataset, options, service_options, store_options);
  out << "serve: store " << store_dir << " ("
      << (service_options.shards == 0 ? std::string("1 engine")
                                      : std::to_string(service_options.shards) + " shards")
      << "), baseline version published\n";

  // Closed-loop reader fleet: each reader pins a version, asks about a
  // random role, and immediately comes back — running until the writer has
  // drained the whole trace. Snapshot isolation means none of them ever
  // waits on the writer's reaudits.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads_total{0};
  std::atomic<std::uint64_t> reads_during_reaudit{0};
  std::vector<std::thread> fleet;
  fleet.reserve(readers);
  for (std::size_t t = 0; t < readers; ++t) {
    fleet.emplace_back([&, t] {
      util::Xoshiro256 reader_rng(0xF1EE7 + t);
      while (!done.load(std::memory_order_acquire)) {
        const bool during = svc.reaudit_in_flight();
        try {
          const service::ReadSession session = svc.begin_read();
          const core::Id role =
              static_cast<core::Id>(reader_rng.bounded(session.version().dataset->num_roles()));
          (void)session.group_of(session.version().dataset->role_name(role));
          reads_total.fetch_add(1, std::memory_order_relaxed);
          if (during) reads_during_reaudit.fetch_add(1, std::memory_order_relaxed);
        } catch (const service::Overloaded&) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::size_t cursor = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    core::RbacDelta delta;
    for (std::size_t m = 0; m < batch_size && cursor < trace.size(); ++m)
      delta.mutations.push_back(trace[cursor++]);
    if (!svc.submit(std::move(delta))) break;
  }
  svc.stop();
  done.store(true, std::memory_order_release);
  for (std::thread& t : fleet) t.join();
  if (svc.writer_error()) std::rethrow_exception(svc.writer_error());

  const service::ServiceStats& stats = svc.stats();
  const std::shared_ptr<const core::EngineVersion> last = svc.current_version();
  out << "serve: applied " << stats.batches_applied.load() << " batches ("
      << stats.mutations_applied.load() << " mutations), published "
      << stats.versions_published.load() << " versions, " << stats.checkpoints.load()
      << " checkpoints\n";
  out << "serve: served " << reads_total.load() << " reads (" << reads_during_reaudit.load()
      << " during a reaudit), rejected " << stats.reads_rejected.load() << "\n";
  out << "serve: final version " << last->version << " (" << last->audits << " audits), writer"
      << " stall " << stats.writer_stall_seconds.load() << " s\n";
  return 0;
}

// --------------------------------------------------------------- version ---

int cmd_version(std::ostream& out) {
  out << "rolediet " << core::kLibraryVersion << " (" << core::kBuildType << " build)\n";
  out << "store formats: snapshot v" << core::kSnapshotFormatVersion << ", wal v"
      << core::kWalFormatVersion << "\n";
  // Hardware capability lives here and in BENCH_kernels.json — never in audit
  // reports, which must stay byte-identical across dispatch targets.
  out << "kernels: active " << linalg::kernels::to_string(linalg::kernels::active_isa())
      << " (supported: " << linalg::kernels::capability_string() << ")\n";
  return 0;
}

// ------------------------------------------------------------------ diet ---

int cmd_diet(Args& args, std::ostream& out) {
  const bool dry_run = args.take_flag("--dry-run");
  const bool remove_entities = args.take_flag("--remove-standalone-entities");
  const bool skip_remediation = args.take_flag("--skip-remediation");
  const bool skip_consolidation = args.take_flag("--skip-consolidation");

  if (args.done()) throw UsageError("diet: missing dataset directory");
  const std::string in_dir = args.take();
  std::string out_dir;
  if (!dry_run) {
    if (args.done()) throw UsageError("diet: missing output directory (or use --dry-run)");
    out_dir = args.take();
  }
  if (!args.done()) throw UsageError("diet: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset original = io::load_dataset(in_dir);
  core::RbacDataset current = original;
  out << "loaded: " << current.num_users() << " users, " << current.num_roles() << " roles, "
      << current.num_permissions() << " permissions\n";

  core::RemediationPlan remediation_plan;
  if (!skip_remediation) {
    const core::AuditReport report = core::audit(current, {.detect_similar = false});
    core::RemediationPolicy policy;
    policy.remove_standalone_users = remove_entities;
    policy.remove_standalone_permissions = remove_entities;
    remediation_plan = core::plan_remediation(current, report, policy);
    out << remediation_plan.to_text(current);
    if (!dry_run) {
      core::RbacDataset next = core::apply_remediation(current, remediation_plan);
      if (!core::verify_remediation(current, next, remediation_plan)) {
        out << "remediation verification FAILED; aborting\n";
        return 1;
      }
      current = std::move(next);
    }
  }

  if (!skip_consolidation) {
    if (dry_run) {
      const core::AuditReport report = core::audit(current, {.detect_similar = false});
      out << "consolidation plan: " << report.same_user_groups.group_count()
          << " same-users groups + " << report.same_permission_groups.group_count()
          << " same-permissions groups, up to " << report.reducible_roles()
          << " roles removable\n";
    } else {
      core::ConsolidationStats stats;
      core::RbacDataset next = core::consolidate_duplicates(current, &stats);
      if (!core::verify_equivalence(current, next)) {
        out << "consolidation verification FAILED; aborting\n";
        return 1;
      }
      out << "consolidation: " << stats.roles_before << " -> " << stats.roles_after
          << " roles (" << stats.removed_same_users << " same-users merges, "
          << stats.removed_same_permissions << " same-permissions merges)\n";
      current = std::move(next);
    }
  }

  if (dry_run) {
    out << "dry run: no changes written\n";
    return 0;
  }
  io::save_dataset(current, out_dir);
  out << "diet complete: " << original.num_roles() << " -> " << current.num_roles()
      << " roles; written to " << out_dir << "\n";
  return 0;
}

// ------------------------------------------------------------------ mine ---

/// Serializes a mining outcome: options, counters, and the mined roles
/// (permission names in full, users as a count — the migrated dataset itself
/// is what `mine DIR OUT` writes).
std::string mining_plan_to_json(const mining::MiningOutcome& outcome,
                                const core::RbacDataset& dataset) {
  const mining::MiningPlan& plan = outcome.plan;
  const mining::MiningStats& s = plan.stats;
  io::JsonWriter w;
  w.begin_object();
  w.key("options");
  w.begin_object();
  w.key("max_roles_per_user");
  w.value(plan.options.max_roles_per_user);
  w.key("max_perms_per_role");
  w.value(plan.options.max_perms_per_role);
  w.key("role_weight");
  w.value(plan.options.role_weight);
  w.key("edge_weight");
  w.value(plan.options.edge_weight);
  w.key("max_candidates");
  w.value(plan.options.max_candidates);
  w.key("time_budget_s");
  w.value(plan.options.time_budget_s);
  w.key("threads");
  w.value(plan.options.threads);
  w.key("backend");
  w.value(linalg::to_string(plan.options.backend));
  w.end_object();
  w.key("stats");
  w.begin_object();
  w.key("users");
  w.value(s.users);
  w.key("permissions");
  w.value(s.permissions);
  w.key("user_classes");
  w.value(s.user_classes);
  w.key("upa_cells");
  w.value(s.upa_cells);
  w.key("roles_before");
  w.value(s.roles_before);
  w.key("roles_after");
  w.value(s.roles_after);
  w.key("role_reduction");
  w.value(s.role_reduction());
  w.key("assignments_before");
  w.value(s.assignments_before);
  w.key("assignments_after");
  w.value(s.assignments_after);
  w.key("grants_before");
  w.value(s.grants_before);
  w.key("grants_after");
  w.value(s.grants_after);
  w.key("candidates");
  w.value(s.candidates);
  w.key("candidate_pool");
  w.value(s.candidate_pool);
  w.key("enumeration_truncated");
  w.value(s.enumeration_truncated);
  w.key("selection_truncated");
  w.value(s.selection_truncated);
  w.key("portfolio_plans");
  w.value(s.portfolio_plans);
  w.key("used_duplicate_merge_fallback");
  w.value(s.used_duplicate_merge_fallback);
  w.key("selected_candidates");
  w.value(s.selected_candidates);
  w.key("mopup_roles");
  w.value(s.mopup_roles);
  w.key("pruned_assignments");
  w.value(s.pruned_assignments);
  w.key("pruned_roles");
  w.value(s.pruned_roles);
  w.key("enumerate_seconds");
  w.value(s.enumerate_seconds);
  w.key("select_seconds");
  w.value(s.select_seconds);
  w.key("verify_seconds");
  w.value(s.verify_seconds);
  w.end_object();
  w.key("verified");
  w.value(outcome.verified);
  w.key("roles");
  w.begin_array();
  for (const mining::MinedRole& role : plan.roles) {
    w.begin_object();
    w.key("name");
    w.value(role.name);
    w.key("users");
    w.value(role.users.size());
    w.key("permissions");
    w.begin_array();
    for (const core::Id perm : role.permissions) w.value(dataset.permission_name(perm));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int cmd_mine(Args& args, std::ostream& out) {
  mining::MiningOptions options;
  if (auto cap = args.take_option("--max-roles-per-user")) {
    options.max_roles_per_user = parse_size(*cap, "--max-roles-per-user");
  }
  if (auto cap = args.take_option("--max-perms-per-role")) {
    options.max_perms_per_role = parse_size(*cap, "--max-perms-per-role");
  }
  if (auto cost = args.take_option("--mine-cost")) {
    const std::size_t colon = cost->find(':');
    if (colon == std::string::npos)
      throw UsageError("--mine-cost expects W_ROLES:W_EDGES (e.g. 1:0.5)");
    options.role_weight = parse_double(cost->substr(0, colon), "--mine-cost roles weight");
    options.edge_weight = parse_double(cost->substr(colon + 1), "--mine-cost edges weight");
    if (options.role_weight < 0.0 || options.edge_weight < 0.0 ||
        options.role_weight + options.edge_weight <= 0.0) {
      throw UsageError("--mine-cost weights must be >= 0 and not both 0");
    }
  }
  if (auto cap = args.take_option("--max-candidates")) {
    options.max_candidates = parse_size(*cap, "--max-candidates");
  }
  if (auto budget = args.take_option("--budget")) {
    options.time_budget_s = parse_double(*budget, "--budget");
    if (options.time_budget_s < 0.0)
      throw UsageError("--budget must be >= 0 seconds (0 = unlimited; got '" + *budget + "')");
  }
  if (auto threads = args.take_option("--threads"))
    options.threads = parse_size(*threads, "--threads");
  if (auto backend = args.take_option("--backend")) options.backend = parse_backend(*backend);
  const std::optional<std::string> json_path = args.take_option("--json");

  if (args.done()) throw UsageError("mine: missing dataset directory");
  const std::string dir = args.take();
  std::optional<std::string> out_dir;
  if (!args.done()) out_dir = args.take();
  if (!args.done()) throw UsageError("mine: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);
  const mining::MiningOutcome outcome = mining::mine(dataset, options);
  out << outcome.plan.to_text();
  if (json_path) write_text_file(*json_path, mining_plan_to_json(outcome, dataset));
  if (!outcome.verified) {
    out << "equivalence verification FAILED; plan rejected\n";
    return 1;
  }
  out << "equivalence verified: every user keeps their exact permission set\n";
  if (out_dir) {
    io::save_dataset(outcome.migrated, *out_dir);
    out << "migrated dataset written to " << *out_dir << "\n";
  }
  return 0;
}

// -------------------------------------------------------------- generate ---

int cmd_generate(Args& args, std::ostream& out) {
  if (args.done()) throw UsageError("generate: expected 'org' or 'matrix'");
  const std::string kind = args.take();

  if (kind == "org") {
    gen::OrgProfile profile = gen::OrgProfile::small();
    if (args.take_flag("--paper-scale")) profile = gen::OrgProfile::paper_scale();
    if (auto seed = args.take_option("--seed")) profile.seed = parse_size(*seed, "--seed");
    if (args.done()) throw UsageError("generate org: missing output directory");
    const std::string dir = args.take();
    if (!args.done()) throw UsageError("generate org: unexpected argument '" + args.peek() + "'");

    const gen::OrgDataset org = gen::generate_org(profile);
    io::save_dataset(org.dataset, dir);
    out << "generated org: " << org.dataset.num_users() << " users, "
        << org.dataset.num_roles() << " roles, " << org.dataset.num_permissions()
        << " permissions -> " << dir << "\n";
    return 0;
  }

  if (kind == "matrix") {
    gen::MatrixGenParams params;
    if (auto roles = args.take_option("--roles")) params.roles = parse_size(*roles, "--roles");
    if (auto users = args.take_option("--users")) params.cols = parse_size(*users, "--users");
    if (auto seed = args.take_option("--seed")) params.seed = parse_size(*seed, "--seed");
    if (args.done()) throw UsageError("generate matrix: missing output directory");
    const std::string dir = args.take();
    if (!args.done())
      throw UsageError("generate matrix: unexpected argument '" + args.peek() + "'");

    const gen::GeneratedMatrix workload = gen::generate_matrix(params);
    // Emit as an RBAC dataset whose RUAM is the generated matrix.
    core::RbacDataset dataset;
    dataset.add_users(params.cols);
    dataset.add_roles(params.roles);
    for (std::size_t r = 0; r < workload.matrix.rows(); ++r) {
      for (std::uint32_t c : workload.matrix.row(r)) {
        dataset.assign_user(static_cast<core::Id>(r), c);
      }
    }
    io::save_dataset(dataset, dir);
    out << "generated matrix: " << params.roles << " roles x " << params.cols << " users, "
        << workload.planted.group_count() << " planted duplicate groups -> " << dir << "\n";
    return 0;
  }

  if (kind == "adversarial") {
    gen::AdversarialParams params;
    if (auto seed = args.take_option("--seed")) params.seed = parse_size(*seed, "--seed");
    if (auto scale = args.take_option("--scale")) {
      params.scale = parse_size(*scale, "--scale");
      if (params.scale == 0) throw UsageError("--scale must be >= 1");
    }
    if (auto threshold = args.take_option("--threshold"))
      params.similarity_threshold = parse_size(*threshold, "--threshold");
    if (auto jaccard = args.take_option("--jaccard")) {
      params.jaccard_dissimilarity = parse_double(*jaccard, "--jaccard");
      if (params.jaccard_dissimilarity < 0.0 || params.jaccard_dissimilarity > 1.0)
        throw UsageError("--jaccard must be within [0, 1]");
    }
    if (args.done()) throw UsageError("generate adversarial: missing scenario (or 'all')");
    const std::string which = args.take();
    if (args.done()) throw UsageError("generate adversarial: missing output directory");
    const std::string dir = args.take();
    if (!args.done())
      throw UsageError("generate adversarial: unexpected argument '" + args.peek() + "'");

    std::vector<gen::AdversarialScenario> scenarios;
    if (which == "all") {
      scenarios.assign(gen::kAllAdversarialScenarios.begin(),
                       gen::kAllAdversarialScenarios.end());
    } else {
      try {
        scenarios.push_back(gen::parse_adversarial_scenario(which));
      } catch (const std::invalid_argument& e) {
        throw UsageError(std::string(e.what()) +
                         " (expected similarity-wall, hub-permissions, clone-chains, "
                         "hostile-names, standalone-storm, or all)");
      }
    }
    for (gen::AdversarialScenario scenario : scenarios) {
      const core::RbacDataset dataset = gen::make_adversarial(scenario, params);
      const std::filesystem::path target =
          which == "all" ? std::filesystem::path(dir) / gen::to_string(scenario)
                         : std::filesystem::path(dir);
      io::save_dataset(dataset, target);
      out << "generated " << gen::to_string(scenario) << ": " << dataset.num_users()
          << " users, " << dataset.num_roles() << " roles, " << dataset.num_permissions()
          << " permissions -> " << target.string() << "\n";
    }
    return 0;
  }

  throw UsageError("generate: unknown kind '" + kind +
                   "' (expected org, matrix, or adversarial)");
}

// --------------------------------------------------------------- compare ---

int cmd_compare(Args& args, std::ostream& out) {
  std::size_t threshold = 0;
  if (auto value = args.take_option("--threshold"))
    threshold = parse_size(*value, "--threshold");
  core::GroupFinderOptions finder_options;
  if (auto threads = args.take_option("--threads"))
    finder_options.threads = parse_size(*threads, "--threads");
  if (auto backend = args.take_option("--backend"))
    finder_options.backend = parse_backend(*backend);
  if (args.done()) throw UsageError("compare: missing dataset directory");
  const std::string dir = args.take();
  if (!args.done()) throw UsageError("compare: unexpected argument '" + args.peek() + "'");

  const core::RbacDataset dataset = io::load_dataset(dir);
  out << "comparing methods on " << dataset.num_roles() << " roles ("
      << (threshold == 0 ? "same-set detection" : "similar, t=" + std::to_string(threshold))
      << ", RUAM)\n";

  char line[128];
  std::snprintf(line, sizeof(line), "%-14s %14s %10s %10s\n", "method", "time", "groups",
                "roles");
  out << line;
  for (core::Method method : {core::Method::kRoleDiet, core::Method::kExactDbscan,
                              core::Method::kApproxHnsw}) {
    const auto finder = core::make_group_finder(method, finder_options);
    util::Stopwatch watch;
    const core::RoleGroups groups = threshold == 0
                                        ? finder->find_same(dataset.ruam())
                                        : finder->find_similar(dataset.ruam(), threshold);
    std::snprintf(line, sizeof(line), "%-14s %14s %10zu %10zu\n",
                  std::string(finder->name()).c_str(),
                  util::format_duration(watch.seconds()).c_str(), groups.group_count(),
                  groups.roles_in_groups());
    out << line;
  }
  return 0;
}

// --------------------------------------------------------------- convert ---

int cmd_convert(Args& args, std::ostream& out) {
  if (args.done()) throw UsageError("convert: missing input path");
  const std::string in_path = args.take();
  if (args.done()) throw UsageError("convert: missing output path");
  const std::string out_path = args.take();
  if (!args.done()) throw UsageError("convert: unexpected argument '" + args.peek() + "'");
  if (in_path.empty()) throw UsageError("convert: empty input path");
  if (out_path.empty()) throw UsageError("convert: empty output path");

  // Input format by shape: a directory is a CSV dataset, a file is binary.
  core::RbacDataset dataset;
  if (std::filesystem::is_directory(in_path)) {
    dataset = io::load_dataset(in_path);
  } else {
    dataset = io::load_dataset_binary(in_path);
  }
  // Output format likewise: paths ending in '/' or existing directories get
  // CSV; anything else gets the binary format.
  const bool to_csv = out_path.back() == '/' || std::filesystem::is_directory(out_path);
  if (to_csv) {
    io::save_dataset(dataset, out_path);
  } else {
    io::save_dataset_binary(dataset, out_path);
  }
  out << "converted " << dataset.num_roles() << " roles (" << dataset.ruam().nnz() << "+"
      << dataset.rpam().nnz() << " edges) to " << (to_csv ? "csv" : "binary") << ": "
      << out_path << "\n";
  return 0;
}

// ------------------------------------------------------------------ help ---

int cmd_help(std::ostream& out) {
  out << "rolediet - RBAC inefficiency detection and cleanup "
         "(IAM Role Diet, DSN-S 2025)\n\n"
         "usage: rolediet SUBCOMMAND [ARGS]\n\n"
         "subcommands:\n"
         "  audit DIR      detect all five inefficiency types; options:\n"
         "                 --method role-diet|exact-dbscan|approx-hnsw\n"
         "                 --threshold N (hamming) | --jaccard F (relative)\n"
         "                 --budget SECONDS (hard deadline: an over-budget\n"
         "                 phase stops mid-phase and reports partial groups)\n"
         "                 --json FILE  --csv FILE\n"
         "                 --threads N (1 = sequential, 0 = all cores;\n"
         "                 groups are identical at every thread count)\n"
         "                 --backend auto|dense|sparse (row-kernel backend;\n"
         "                 reports are identical for every choice)\n"
         "                 --shards N (range-partitioned sharded engine;\n"
         "                 findings are identical to the unsharded audit for\n"
         "                 every method except approx-hnsw)\n"
         "  replay DIR JOURNAL\n"
         "                 stream a mutation journal into a steady-state\n"
         "                 audit engine: baseline audit of DIR, then delta\n"
         "                 re-audits that only re-verify mutated roles;\n"
         "                 --every N (re-audit every N mutations; default:\n"
         "                 once at end of journal) plus all audit options;\n"
         "                 --store STORE (make the engine durable: WAL-log\n"
         "                 every batch into a new store at STORE)\n"
         "                 --checkpoint-every N (snapshot + prune the WAL\n"
         "                 every N logged records; default: once at end)\n"
         "                 --fsync record|batch|none (WAL durability)\n"
         "                 --shards N (create a sharded store: per-shard WAL\n"
         "                 streams + mmap'd bodies behind one manifest)\n"
         "  checkpoint DIR STORE\n"
         "                 initialize a durable store at STORE from dataset\n"
         "                 DIR (baseline snapshot + empty WAL); audit\n"
         "                 options fix the engine configuration;\n"
         "                 --shards N selects the sharded layout\n"
         "  recover STORE  rebuild the engine from the newest valid snapshot\n"
         "                 plus the WAL tail (truncating a torn final\n"
         "                 record), report what recovery did, and re-audit;\n"
         "                 the store layout (flat or sharded) is\n"
         "                 auto-detected; --json FILE plus all audit options\n"
         "  serve DIR STORE\n"
         "                 writer/reader split demo: create a store at STORE\n"
         "                 from dataset DIR, run a writer thread applying a\n"
         "                 synthetic delta stream, and serve snapshot-\n"
         "                 isolated reads from published versions while the\n"
         "                 writer keeps re-auditing; --shards N (sharded\n"
         "                 store)  --reaudit-every N (batches per reaudit)\n"
         "                 --checkpoint-every N (reaudits per checkpoint;\n"
         "                 0 = final only)  --batches N  --batch-size N\n"
         "                 --readers N plus audit + fsync options\n"
         "  diet DIR OUT   apply safe cleanup (remediation + consolidation);\n"
         "                 --dry-run  --remove-standalone-entities\n"
         "                 --skip-remediation  --skip-consolidation\n"
         "  mine DIR [OUT] mine a minimal equivalent role decomposition\n"
         "                 (maximal-biclique candidates + constrained greedy\n"
         "                 set cover) and verify it preserves every user's\n"
         "                 exact permission set; OUT writes the migrated\n"
         "                 dataset; --max-roles-per-user N\n"
         "                 --max-perms-per-role N (0 = unlimited)\n"
         "                 --mine-cost W_ROLES:W_EDGES (bi-objective cost;\n"
         "                 default 1:0 minimizes role count alone)\n"
         "                 --max-candidates N  --budget SECONDS (plans stay\n"
         "                 complete + verified, just less optimized)\n"
         "                 --json FILE  --threads N  --backend B\n"
         "  churn STORE    simulate a multi-year org lifecycle (hiring,\n"
         "                 reorg bursts, tenant onboarding, sprawl, layoffs)\n"
         "                 and replay it through a durable engine store;\n"
         "                 --employees N  --years N  --seed N\n"
         "                 --reaudit-days N (default 91)\n"
         "                 --checkpoint-days N (default 91)\n"
         "                 --journal FILE (tee the mutation stream)\n"
         "                 --journal-only (write the stream, skip the store;\n"
         "                 STORE positional not needed) plus audit + fsync\n"
         "                 options and --shards N (sharded store layout)\n"
         "  generate org DIR     [--paper-scale] [--seed N]\n"
         "  generate matrix DIR  [--roles N] [--users N] [--seed N]\n"
         "  generate adversarial SCENARIO DIR  [--scale N] [--seed N]\n"
         "                 hostile corpus: similarity-wall, hub-permissions,\n"
         "                 clone-chains, hostile-names, standalone-storm, or\n"
         "                 all (writes one dataset per scenario under DIR)\n"
         "  compare DIR    [--threshold N] [--threads N] [--backend B]\n"
         "                 run all detection methods side by side\n"
         "  convert IN OUT directory = CSV dataset, file = binary format\n"
         "  version        library version, store format versions, and the\n"
         "                 active SIMD kernel target\n"
         "  help           this text\n\n"
         "global options:\n"
         "  --kernel auto|scalar|avx2|avx512|neon\n"
         "                 force the SIMD dispatch target for batch verify\n"
         "                 kernels (default: best the CPU supports, or the\n"
         "                 ROLEDIET_KERNEL environment variable). Every\n"
         "                 target computes identical results; this changes\n"
         "                 throughput only.\n\n"
         "Datasets are directories of CSV files: entities.csv (kind,name),\n"
         "assignments.csv (role,user), grants.csv (role,permission).\n";
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    Args cursor(args);
    // Global flag, valid before or after the subcommand: forces the SIMD
    // dispatch target for the whole process (ROLEDIET_KERNEL is the env
    // equivalent; the flag wins because it is applied last). Every target
    // computes identical integers, so this changes throughput, never output.
    if (auto kernel = cursor.take_option("--kernel")) {
      const auto isa = linalg::kernels::parse_kernel_isa(*kernel);
      if (!isa)
        throw UsageError("unknown --kernel '" + *kernel +
                         "' (expected auto, scalar, avx2, avx512, or neon)");
      try {
        linalg::kernels::set_active_isa(*isa);
      } catch (const std::invalid_argument&) {
        throw UsageError("--kernel " + *kernel + " not supported on this CPU (supported: " +
                         linalg::kernels::capability_string() + ")");
      }
    }
    if (cursor.done()) {
      cmd_help(out);
      return 2;
    }
    const std::string command = cursor.take();
    if (command == "audit") return cmd_audit(cursor, out);
    if (command == "replay") return cmd_replay(cursor, out);
    if (command == "diet") return cmd_diet(cursor, out);
    if (command == "mine") return cmd_mine(cursor, out);
    if (command == "generate") return cmd_generate(cursor, out);
    if (command == "compare") return cmd_compare(cursor, out);
    if (command == "convert") return cmd_convert(cursor, out);
    if (command == "churn") return cmd_churn(cursor, out);
    if (command == "checkpoint") return cmd_checkpoint(cursor, out);
    if (command == "recover") return cmd_recover(cursor, out);
    if (command == "serve") return cmd_serve(cursor, out);
    if (command == "version" || command == "--version" || command == "-v") return cmd_version(out);
    if (command == "help" || command == "--help" || command == "-h") return cmd_help(out);
    throw UsageError("unknown subcommand '" + command + "'");
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << "\n";
    err << "run 'rolediet help' for usage\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rolediet::cli
