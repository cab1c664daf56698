// Shared pieces of the benchmark runner: sample statistics, the result a
// workload fills in, the run context, and the input layout perfbench_gen
// writes and perfbench_run reads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = rolediet::core;

/// Input sizes of one workload. `tiny` is the self-test scale.
struct Scale {
  bool tiny = false;
  std::size_t serve_employees() const { return tiny ? 1'500 : 60'000; }
  std::size_t mine_employees() const { return tiny ? 300 : 1'200; }
};

// Input layout under the workload's input directory.
inline fs::path dataset_dir(const fs::path& input) { return input / "dataset"; }
inline fs::path batches_dir(const fs::path& input) { return input / "batches"; }
inline fs::path truth_file(const fs::path& input) { return input / "truth.txt"; }
inline std::string batch_file_name(std::size_t day) {
  char name[32];
  std::snprintf(name, sizeof(name), "day-%04zu.csv", day);
  return name;
}

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] double median() const;
  /// The highest percentile with at least ten samples beyond it (the maximum
  /// when there are ten samples or fewer).
  [[nodiscard]] double tail() const;
  /// Which percentile tail() reports, in percent.
  [[nodiscard]] double tail_percentile() const;

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one workload run reports.
struct Result {
  /// Gated end-to-end metrics (every workload reports all of them).
  std::map<std::string, Metric> end_to_end;
  /// The workload's own end-to-end metrics under their path names
  /// (audit_s, fresh_ms, recover_s, mine_s, ...).
  std::map<std::string, Metric> named;
  /// Per-layer metrics of a traced run: the ones this workload reaches.
  std::map<std::string, Metric> per_layer;
  /// Input shape and other run facts.
  std::map<std::string, double> shape;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Counts one checked operation; a false `ok` is a failed one.
  void check(bool ok, const std::string& what);
  /// Adds the checks another thread counted into its own Result.
  void merge_checks(const Result& other);
  void set_layer(const std::string& name, double value, const char* unit, std::size_t samples);
};

struct Context {
  std::string workload;
  fs::path input;
  fs::path work;  ///< scratch directory for stores and copies (emptied first)
  double seconds = 1.0;
  bool trace = false;
  std::uint64_t seed = 0;
  Scale scale;
  bool plant_fault = false;  ///< flip one checked value (self-test)
  Tracer* tracer = nullptr;
};

/// Library settings of every workload: role-diet, Hamming t = 1, one thread.
core::AuditOptions audit_options();

/// Digest of a report's findings (structural lists and the four group sets),
/// independent of timings.
std::uint64_t findings_digest(const core::AuditReport& report);

double peak_rss_mb();
double current_rss_mb();
/// CPU time the hypervisor withheld from the virtual processors (steal), seconds.
double host_steal_s();
/// Total size of the regular files under `dir` whose name starts with
/// `prefix` (recursively).
std::uint64_t bytes_under(const fs::path& dir, const std::string& prefix = "");

/// Seconds on a steady clock since an arbitrary origin.
double now_s();
/// Processor time of the calling thread, seconds. The kernel leaves out the
/// time the hypervisor withheld from the virtual processor (steal), so a
/// single-threaded operation timed with it is not inflated by host load.
double thread_cpu_s();

/// Loads the dataset under `dir` `times` times, each on fresh state, timing
/// each load's thread processor time into `setup` under an io span; returns
/// the last load.
core::RbacDataset load_repeatedly(const fs::path& dir, int times, Tracer& tracer,
                                  Samples& setup);
/// Records the dataset's users, roles, permissions and edges in result.shape.
void record_shape(const core::RbacDataset& dataset, Result& result);

// Workloads. On a traced run each sets the per-layer metrics it reaches.
void run_org_audit(const Context& ctx, Result& result);
void run_churn_serve(const Context& ctx, std::size_t shards, Result& result);
void run_churn_mine(const Context& ctx, Result& result);

}  // namespace perfbench
