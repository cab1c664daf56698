// churn-serve / churn-serve-s4: journal batch -> WAL -> reaudit -> published
// version -> first read, plus recovery of the store from a crash image.
//
// One closed-loop client submits each day of a churn lifecycle through the
// first tenant onboarding and waits until that day's version is readable and
// its first page read has returned before sending the next: AuditService does
// not coalesce batches, so an open loop above the reaudit rate only grows the
// queue. A reader thread issues page reads on a fixed schedule and times each
// from when it was due. The writer, client and reader make three threads.
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "io/json_writer.hpp"
#include "service/audit_service.hpp"
#include "store/engine_store.hpp"
#include "store/sharded_store.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace io = rolediet::io;
namespace service = rolediet::service;
namespace store = rolediet::store;

namespace {

constexpr std::size_t kReauditEvery = 1;
constexpr std::size_t kCheckpointEvery = 8;
constexpr std::size_t kPageRoles = 64;  // roles looked up by one page read
constexpr int kMinSetups = 10;
constexpr int kRecoveries = 5;
// One page read due every 2 ms: at least ten reads inside each flat-store
// checkpoint (about 28 ms), so every writer phase is sampled; see README.md.
constexpr double kReadPaceS = 0.002;
constexpr double kSpinWindowS = 0.0003;  // sleep until this close to due, then spin
constexpr double kMB = 1024.0 * 1024.0;

struct Inputs {
  core::RbacDataset baseline;
  std::vector<core::RbacDelta> batches;
  std::size_t mutations = 0;
};

/// Timings of page reads: pin = begin_read(), page = the group_of calls.
struct ReadTimes {
  Samples pin, page;
};

/// One page read: pin the current version and look up kPageRoles roles drawn
/// from it. Every role must be known to the version it was drawn from.
void page_read(service::AuditService& svc, Tracer& tracer, rolediet::util::Xoshiro256& rng,
               ReadTimes& times, Result& checks) {
  try {
    double t = now_s();
    std::optional<service::ReadSession> session;
    {
      auto span = tracer.span("service", "AuditService::begin_read");
      session.emplace(svc.begin_read());
    }
    times.pin.add(now_s() - t);
    t = now_s();
    const core::RbacDataset& dataset = *session->version().dataset;
    bool known = dataset.num_roles() > 0;
    {
      auto span = tracer.span("service", "ReadSession::group_of");
      for (std::size_t i = 0; i < kPageRoles && known; ++i) {
        const auto role = static_cast<core::Id>(rng() % dataset.num_roles());
        known = session->group_of(dataset.role_name(role)).known;
      }
    }
    times.page.add(now_s() - t);
    checks.check(known, "page read: a role drawn from the pinned version is unknown to it");
  } catch (const service::Overloaded& e) {
    checks.check(false, std::string("page read refused: ") + e.what());
  } catch (const service::DeadlineExpired& e) {
    checks.check(false, std::string("page read expired: ") + e.what());
  }
}

/// Paced page reads on their own thread until stopped.
class Reader {
 public:
  Reader(service::AuditService& svc, Tracer& tracer, std::uint64_t seed)
      : svc_(svc), tracer_(tracer), rng_(seed), thread_([this] { loop(); }) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  Samples latency;   ///< due -> page returned, seconds
  Samples lateness;  ///< due -> read started (the generator's own lateness)
  ReadTimes times;
  std::size_t in_reaudit = 0;
  Result checks;  ///< merged into the run's result after the thread joins
  std::exception_ptr error;

 private:
  void loop() {
    try {
      double due = now_s() + kReadPaceS;
      while (!stop_.load(std::memory_order_acquire)) {
        double now = now_s();
        if (due - now > kSpinWindowS)
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now - kSpinWindowS));
        while ((now = now_s()) < due) {
        }
        lateness.add(now - due);
        if (svc_.reaudit_in_flight()) ++in_reaudit;
        {
          auto span = tracer_.span("bench", "read");
          page_read(svc_, tracer_, rng_, times, checks);
        }
        latency.add(now_s() - due);
        due += kReadPaceS;
      }
    } catch (...) {
      error = std::current_exception();
    }
  }

  service::AuditService& svc_;
  Tracer& tracer_;
  rolediet::util::Xoshiro256 rng_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses exists
};

/// One traced or untraced measurement pass.
struct Pass {
  Samples setup;    ///< AuditService construction, thread processor seconds
  Samples fresh;    ///< submit -> readable -> first page read, seconds
  Samples read;     ///< reader page reads from their due time, seconds
  Samples lateness;
  Samples recover;  ///< store open + first reaudit on the crash image, seconds
  Samples recover_open, recover_reaudit;
  ReadTimes read_times;
  double stream_seconds = 0.0;
  std::size_t mutations = 0;
  std::size_t reads_in_reaudit = 0;
  std::size_t replayed_records = 0;
  double writer_stall_s = 0.0;
  std::vector<double> fresh_first_stream;  ///< per batch, first stream only
  std::shared_ptr<const core::EngineVersion> final_version;
  double peak_rss_mb = 0.0;  ///< after set-up, the first stream and the recoveries
};

service::ServiceOptions service_options(std::size_t shards) {
  service::ServiceOptions options;
  options.shards = shards;
  options.reaudit_every = kReauditEvery;
  options.checkpoint_every = kCheckpointEvery;
  return options;
}

/// Submits every batch to `svc` in a closed loop and leaves it running.
void stream(service::AuditService& svc, const Inputs& inputs, Tracer& tracer,
            rolediet::util::Xoshiro256& rng, Pass& pass, Result& checks, bool first) {
  std::uint64_t audits = svc.current_version()->audits;
  std::uint64_t published = svc.stats().versions_published.load();
  const double start = now_s();
  for (std::size_t day = 0; day < inputs.batches.size(); ++day) {
    auto op = tracer.span("bench", "op");
    const double t0 = now_s();
    bool accepted = false;
    {
      auto span = tracer.span("service", "AuditService::submit");
      accepted = svc.submit(inputs.batches[day]);
    }
    if (!accepted) {
      const std::exception_ptr error = svc.writer_error();
      if (error) std::rethrow_exception(error);
      throw std::runtime_error("service refused a batch after stop");
    }
    {
      // Poll with short sleeps: a spinning client would take a core from the
      // writer and the reader. The wait is the benchmark's, not a layer call:
      // the writer's work it covers is broken down by the replay.
      auto span = tracer.span("bench", "wait for version");
      while (svc.stats().versions_published.load() == published) {
        if (svc.writer_error()) std::rethrow_exception(svc.writer_error());
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    const std::uint64_t now_published = svc.stats().versions_published.load();
    const std::uint64_t now_audits = svc.current_version()->audits;
    checks.check(now_published == published + 1 && now_audits == audits + 1,
                 "batch " + std::to_string(day + 1) + ": version count rose by " +
                     std::to_string(now_audits - audits) + ", not 1");
    published = now_published;
    audits = now_audits;
    page_read(svc, tracer, rng, pass.read_times, checks);
    const double fresh = now_s() - t0;
    pass.fresh.add(fresh);
    if (first) pass.fresh_first_stream.push_back(fresh);
  }
  pass.stream_seconds += now_s() - start;
  pass.mutations += inputs.mutations;
}

/// Either store layout behind one surface.
struct AnyStore {
  std::optional<store::EngineStore> flat;
  std::optional<store::ShardedEngineStore> sharded;

  static AnyStore open(const fs::path& dir, std::size_t shards) {
    AnyStore s;
    if (shards == 0) s.flat.emplace(store::EngineStore::open(dir, audit_options()));
    else s.sharded.emplace(store::ShardedEngineStore::open(dir, audit_options()));
    return s;
  }
  static AnyStore create(const fs::path& dir, const core::RbacDataset& baseline,
                         std::size_t shards) {
    AnyStore s;
    if (shards == 0) {
      s.flat.emplace(store::EngineStore::create(dir, baseline, audit_options()));
    } else {
      s.sharded.emplace(
          store::ShardedEngineStore::create(dir, baseline, shards, audit_options()));
    }
    return s;
  }
  void apply(const core::RbacDelta& delta) { flat ? flat->apply(delta) : sharded->apply(delta); }
  core::AuditReport reaudit() { return flat ? flat->reaudit() : sharded->reaudit(); }
  void checkpoint() { flat ? (void)flat->checkpoint() : (void)sharded->checkpoint(); }
  std::shared_ptr<const core::EngineVersion> published() const {
    return flat ? flat->engine().published() : sharded->engine().published();
  }
  std::size_t replayed_records() const {
    if (flat) return flat->recovery().replayed_records;
    return sharded->recovery().replayed_interns + sharded->recovery().replayed_edges;
  }
};

/// What recovery must reproduce: the state the last batch published.
struct Live {
  std::uint64_t findings = 0;
  std::uint64_t dataset = 0;
  std::uint64_t version = 0;
};

/// Recovers the crash image kRecoveries times, each from a fresh copy: store
/// open() plus the first reaudit, checked against the live state.
void recover(const Context& ctx, std::size_t shards, const fs::path& crash, const Live& live,
             Tracer& tracer, Pass& p, Result& result) {
  for (int i = 0; i < kRecoveries; ++i) {
    const fs::path dir = ctx.work / ("recover-" + std::to_string(i));
    fs::copy(crash, dir, fs::copy_options::recursive);
    const double t0 = now_s();
    std::optional<AnyStore> st;
    {
      auto span = tracer.span("store", "store::open");
      st.emplace(AnyStore::open(dir, shards));
    }
    const double opened = now_s();
    core::AuditReport report;
    {
      auto span = tracer.span("store", "store::reaudit");
      report = st->reaudit();
    }
    const double done = now_s();
    p.recover.add(done - t0);
    p.recover_open.add(opened - t0);
    p.recover_reaudit.add(done - opened);
    p.replayed_records = st->replayed_records();
    std::uint64_t recovered = findings_digest(report);
    if (ctx.plant_fault && i == 0) recovered ^= 1;
    result.check(recovered == live.findings && report.dataset_digest == live.dataset &&
                     report.engine_version == live.version,
                 "recovery " + std::to_string(i) + ": recovered state differs from the live one");
    st.reset();
    fs::remove_all(dir);
  }
}

/// Regular files under `dir` that are not WAL segments.
std::set<fs::path> non_wal_files(const fs::path& dir) {
  std::set<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename().string().rfind("wal-", 0) != 0)
      files.insert(entry.path());
  }
  return files;
}

/// Single-threaded replay of the batches through the store's public calls,
/// beside a bare engine that does not publish, so WAL, detection and
/// publication cost separate.
template <class Engine>
void replay(const Context& ctx, const Inputs& inputs, std::size_t shards,
            const std::vector<double>& fresh, Result& result) {
  Tracer& tracer = *ctx.tracer;
  const fs::path dir = ctx.work / "replay";
  Samples store_apply, store_reaudit, checkpoint, snapshot_mb, engine_apply, engine_reaudit,
      publish, queue_wait, dirty, delta_pairs;
  std::uint64_t wal_bytes = 0;
  Samples local_pairs, cross_candidates, cross_matched, exchanged;

  std::optional<AnyStore> st;
  std::optional<Engine> engine;
  {
    auto span = tracer.span("store", "store::create");
    st.emplace(AnyStore::create(dir, inputs.baseline, shards));
  }
  {
    auto span = tracer.span("store", "store::reaudit");
    (void)st->reaudit();
  }
  {
    auto span = tracer.span(shards == 0 ? "core" : "shard", "engine::engine");
    if constexpr (std::is_same_v<Engine, core::ShardedEngine>) {
      engine.emplace(inputs.baseline, shards, audit_options());
    } else {
      engine.emplace(inputs.baseline, audit_options());
    }
  }
  {
    auto span = tracer.span(shards == 0 ? "core" : "shard", "engine::reaudit");
    (void)engine->reaudit();
  }
  std::size_t reaudits = 1;
  for (std::size_t day = 0; day < inputs.batches.size(); ++day) {
    const core::RbacDelta& batch = inputs.batches[day];
    double store_ms = 0.0;
    {
      auto op = tracer.span("bench", "replay");
      const std::uint64_t wal_before = bytes_under(dir, "wal-");
      double t = now_s();
      {
        auto span = tracer.span("store", "store::apply");
        st->apply(batch);
      }
      store_apply.add((now_s() - t) * 1e3);
      wal_bytes += bytes_under(dir, "wal-") - wal_before;
      t = now_s();
      {
        auto span = tracer.span("store", "store::reaudit");
        (void)st->reaudit();
      }
      store_reaudit.add((now_s() - t) * 1e3);
      store_ms = store_apply.values().back() + store_reaudit.values().back();
      if (++reaudits % kCheckpointEvery == 0) {
        const std::set<fs::path> before = non_wal_files(dir);
        t = now_s();
        {
          auto span = tracer.span("store", "store::checkpoint");
          st->checkpoint();
        }
        checkpoint.add((now_s() - t) * 1e3);
        std::uint64_t written = 0;
        for (const fs::path& file : non_wal_files(dir))
          if (!before.count(file)) written += fs::file_size(file);
        snapshot_mb.add(static_cast<double>(written) / kMB);
      }
    }
    const char* layer = shards == 0 ? "core" : "shard";
    double t = now_s();
    {
      auto span = tracer.span(layer, "engine::apply");
      engine->apply(batch);
    }
    engine_apply.add((now_s() - t) * 1e3);
    if constexpr (std::is_same_v<Engine, core::AuditEngine>)
      dirty.add(static_cast<double>(engine->dirty_roles()));
    t = now_s();
    core::AuditReport report;
    {
      auto span = tracer.span(layer, "engine::reaudit");
      report = engine->reaudit();
    }
    engine_reaudit.add((now_s() - t) * 1e3);
    publish.add(store_reaudit.values().back() - engine_reaudit.values().back());
    delta_pairs.add(static_cast<double>(report.similar_users_work.pairs_evaluated +
                                        report.similar_permissions_work.pairs_evaluated));
    if constexpr (std::is_same_v<Engine, core::ShardedEngine>) {
      const core::ShardWorkSnapshot& w = engine->last_shard_work();
      double local = 0.0;
      for (const auto* axis : {&w.users, &w.perms})
        for (const std::uint64_t p : axis->local_pairs_evaluated) local += static_cast<double>(p);
      local_pairs.add(local);
      cross_candidates.add(
          static_cast<double>(w.users.cross_candidates + w.perms.cross_candidates));
      cross_matched.add(static_cast<double>(w.users.cross_matched + w.perms.cross_matched));
      exchanged.add(
          static_cast<double>(w.users.exchanged_signatures + w.perms.exchanged_signatures));
    }
    if (day < fresh.size()) queue_wait.add(fresh[day] * 1e3 - store_ms);
  }

  // Memory per published version: pin four more versions of the final state.
  std::vector<std::shared_ptr<const core::EngineVersion>> pins{st->published()};
  const double rss_before = current_rss_mb();
  for (int i = 0; i < 4; ++i) {
    (void)st->reaudit();
    pins.push_back(st->published());
  }
  const double version_mb = (current_rss_mb() - rss_before) / 4.0;

  const std::size_t n = inputs.batches.size();
  result.set_layer("store.apply_ms", store_apply.median(), "ms", n);
  result.set_layer("core.apply_ms", engine_apply.median(), "ms", n);
  result.set_layer("store.wal_bytes_per_mut",
                   static_cast<double>(wal_bytes) / static_cast<double>(inputs.mutations),
                   "B/mut", n);
  if constexpr (std::is_same_v<Engine, core::AuditEngine>) {
    result.set_layer("core.delta_reaudit_ms", engine_reaudit.median(), "ms", n);
    result.set_layer("core.dirty_roles", dirty.median(), "count", n);
    result.set_layer("core.delta_pairs_evaluated", delta_pairs.median(), "count", n);
  } else {
    result.set_layer("shard.delta_reaudit_ms", engine_reaudit.median(), "ms", n);
    result.set_layer("shard.local_pairs", local_pairs.median(), "count", n);
    result.set_layer("shard.cross_candidates", cross_candidates.median(), "count", n);
    result.set_layer("shard.cross_matched", cross_matched.median(), "count", n);
    result.set_layer("shard.exchanged_signatures", exchanged.median(), "count", n);
  }
  result.set_layer("core.publish_ms", publish.median(), "ms", n);
  result.set_layer("core.version_mb", version_mb, "MB", 4);
  result.set_layer("store.checkpoint_ms", checkpoint.median(), "ms", checkpoint.size());
  result.set_layer("store.snapshot_mb", snapshot_mb.median(), "MB", snapshot_mb.size());
  result.set_layer("service.queue_wait_ms", queue_wait.median(), "ms", queue_wait.size());
}

}  // namespace

void run_churn_serve(const Context& ctx, std::size_t shards, Result& result) {
  Inputs inputs;
  Samples load;
  inputs.baseline = load_repeatedly(dataset_dir(ctx.input), 1, *ctx.tracer, load);
  for (std::size_t day = 1;; ++day) {
    const fs::path file = batches_dir(ctx.input) / batch_file_name(day);
    if (!fs::exists(file)) break;
    inputs.batches.push_back(io::load_journal(file));
    inputs.mutations += inputs.batches.back().size();
  }
  if (inputs.batches.empty()) throw std::runtime_error("no batches under " + ctx.input.string());
  record_shape(inputs.baseline, result);
  result.shape["batches"] = static_cast<double>(inputs.batches.size());
  result.shape["mutations"] = static_cast<double>(inputs.mutations);
  result.shape["shards"] = static_cast<double>(shards);

  const fs::path crash = ctx.work / "crash";
  Live live;
  int services = 0;

  const auto pass = [&](Tracer& tracer, double seconds) {
    Pass p;
    rolediet::util::Xoshiro256 rng(ctx.seed * 2 + 1);
    const auto fresh_dir = [&] { return ctx.work / ("svc-" + std::to_string(services++)); };
    const double start = now_s();
    for (int streams = 0; streams == 0 || now_s() - start < seconds; ++streams) {
      const fs::path dir = fresh_dir();
      const double t0 = thread_cpu_s();
      std::optional<service::AuditService> svc;
      {
        auto span = tracer.span("service", "AuditService::AuditService");
        svc.emplace(dir, inputs.baseline, audit_options(), service_options(shards));
      }
      p.setup.add(thread_cpu_s() - t0);
      {
        Reader reader(*svc, tracer, ctx.seed + static_cast<std::uint64_t>(streams));
        stream(*svc, inputs, tracer, rng, p, result, streams == 0);
        reader.stop();
        if (reader.error) std::rethrow_exception(reader.error);
        for (const double v : reader.latency.values()) p.read.add(v);
        for (const double v : reader.lateness.values()) p.lateness.add(v);
        for (const double v : reader.times.pin.values()) p.read_times.pin.add(v);
        for (const double v : reader.times.page.values()) p.read_times.page.add(v);
        p.reads_in_reaudit += reader.in_reaudit;
        result.merge_checks(reader.checks);
      }
      p.writer_stall_s = svc->stats().writer_stall_seconds.load();
      if (streams == 0) {
        // The version the last batch published, against a fresh batch audit
        // of its own dataset; then the crash image, taken while the WAL tail
        // past the newest snapshot holds the last batches.
        p.final_version = svc->current_version();
        const core::AuditReport fresh = core::audit(*p.final_version->dataset, audit_options());
        result.check(findings_digest(fresh) == findings_digest(p.final_version->report),
                     "final published findings differ from a fresh audit of its dataset");
        live = Live{findings_digest(p.final_version->report),
                    p.final_version->report.dataset_digest,
                    p.final_version->report.engine_version};
        if (!fs::exists(crash)) fs::copy(dir, crash, fs::copy_options::recursive);
      }
      svc->stop();
      if (svc->writer_error()) std::rethrow_exception(svc->writer_error());
      svc.reset();
      fs::remove_all(dir);
      if (streams == 0) {
        recover(ctx, shards, crash, live, tracer, p, result);
        // The fixed part of the run ends here; later streams only fill time.
        p.peak_rss_mb = peak_rss_mb();
      }
    }
    for (int i = static_cast<int>(p.setup.size()); i < kMinSetups; ++i) {
      const fs::path dir = fresh_dir();
      const double t0 = thread_cpu_s();
      std::optional<service::AuditService> svc;
      svc.emplace(dir, inputs.baseline, audit_options(), service_options(shards));
      p.setup.add(thread_cpu_s() - t0);
      svc.reset();
      fs::remove_all(dir);
    }
    return p;
  };

  Tracer off(false, "");
  const Pass plain = pass(off, ctx.trace ? ctx.seconds / 2 : ctx.seconds);
  result.end_to_end["setup_s"] = Metric{plain.setup.median(), "s", plain.setup.size()};
  result.end_to_end["op_ms"] = Metric{plain.fresh.median() * 1e3, "ms", plain.fresh.size()};
  result.end_to_end["peak_rss_mb"] = Metric{plain.peak_rss_mb, "MB", 1};
  result.named["setup_s"] = result.end_to_end["setup_s"];
  result.named["fresh_ms"] = result.end_to_end["op_ms"];
  result.named["fresh_tail_ms"] = Metric{plain.fresh.tail() * 1e3, "ms", plain.fresh.size()};
  result.named["ingest_mut_per_s"] = Metric{
      static_cast<double>(plain.mutations) / plain.stream_seconds, "1/s", plain.fresh.size()};
  result.named["read_us"] = Metric{plain.read.median() * 1e6, "us", plain.read.size()};
  result.named["read_tail_us"] = Metric{plain.read.tail() * 1e6, "us", plain.read.size()};
  result.named["reader_lateness_us"] =
      Metric{plain.lateness.tail() * 1e6, "us", plain.lateness.size()};
  result.named["recover_s"] = Metric{plain.recover.median(), "s", plain.recover.size()};
  result.shape["fresh_tail_percentile"] = plain.fresh.tail_percentile();
  result.shape["read_tail_percentile"] = plain.read.tail_percentile();
  if (!ctx.trace) return;

  Tracer& tracer = *ctx.tracer;
  fs::remove_all(crash);
  const Pass traced = pass(tracer, ctx.seconds / 2);
  if (shards == 0) {
    replay<core::AuditEngine>(ctx, inputs, shards, traced.fresh_first_stream, result);
  } else {
    replay<core::ShardedEngine>(ctx, inputs, shards, traced.fresh_first_stream, result);
  }
  double json_s = 0.0;
  std::string json;
  {
    auto span = tracer.span("io", "io::report_to_json");
    const double t0 = now_s();
    json = io::report_to_json(traced.final_version->report, *traced.final_version->dataset);
    json_s = now_s() - t0;
  }
  const std::size_t reads = traced.read_times.page.size();
  result.set_layer("io.load_s", load.median(), "s", 1);
  result.set_layer("io.load_mb_per_s",
                   static_cast<double>(bytes_under(dataset_dir(ctx.input))) / kMB / load.median(),
                   "MB/s", 1);
  result.set_layer("io.report_json_s", json_s, "s", 1);
  result.set_layer("io.report_mb", static_cast<double>(json.size()) / kMB, "MB", 1);
  result.set_layer("store.recover_open_s", traced.recover_open.median(), "s",
                   traced.recover.size());
  result.set_layer("store.recover_reaudit_s", traced.recover_reaudit.median(), "s",
                   traced.recover.size());
  result.set_layer("store.replayed_records", static_cast<double>(traced.replayed_records),
                   "count", 1);
  result.set_layer("service.pin_us", traced.read_times.pin.median() * 1e6, "us", reads);
  result.set_layer("service.page_us", traced.read_times.page.median() * 1e6, "us", reads);
  result.set_layer("service.reads_in_reaudit",
                   traced.read.size() == 0 ? 0.0
                                           : static_cast<double>(traced.reads_in_reaudit) /
                                                 static_cast<double>(traced.read.size()),
                   "ratio", traced.read.size());
  result.set_layer("service.writer_stall_s", traced.writer_stall_s, "s", 1);
  // The serve operation spans three threads and mostly waits on the writer;
  // the single-threaded replay is what breaks its work down into layer calls.
  result.set_layer("trace.coverage", tracer.coverage("replay"), "ratio", inputs.batches.size());
  result.set_layer("overhead.setup_s", traced.setup.median() - plain.setup.median(), "s",
                   traced.setup.size());
  result.set_layer("overhead.op_ms", (traced.fresh.median() - plain.fresh.median()) * 1e3, "ms",
                   traced.fresh.size());
}

}  // namespace perfbench
