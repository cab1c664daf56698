// Definitions shared by the workloads of perfbench_run.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/digest.hpp"
#include "io/csv.hpp"

namespace perfbench {

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::tail() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  return v.size() <= 10 ? v.back() : v[v.size() - 11];
}

double Samples::tail_percentile() const {
  const std::size_t n = values_.size();
  return n <= 10 ? 100.0 : 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::merge_checks(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures)
    if (failures.size() < 8) failures.push_back(f);
}

void Result::set_layer(const std::string& name, double value, const char* unit,
                       std::size_t samples) {
  per_layer[name] = Metric{value, unit, samples};
}

core::AuditOptions audit_options() {
  core::AuditOptions options;
  options.method = core::Method::kRoleDiet;
  options.similarity_mode = core::SimilarityMode::kHamming;
  options.similarity_threshold = 1;
  options.threads = 1;
  return options;
}

std::uint64_t findings_digest(const core::AuditReport& report) {
  core::ContentDigest d;
  const auto ids = [&d](const std::vector<core::Id>& v) {
    d.u64(v.size());
    for (const core::Id id : v) d.u64(id);
  };
  const core::StructuralFindings& s = report.structural;
  ids(s.standalone_users);
  ids(s.standalone_roles);
  ids(s.standalone_permissions);
  ids(s.roles_without_users);
  ids(s.roles_without_permissions);
  ids(s.single_user_roles);
  ids(s.single_permission_roles);
  for (const core::RoleGroups* g : {&report.same_user_groups, &report.same_permission_groups,
                                    &report.similar_user_groups,
                                    &report.similar_permission_groups}) {
    d.u64(g->groups.size());
    for (const auto& group : g->groups) {
      d.u64(group.size());
      for (const std::size_t role : group) d.u64(role);
    }
  }
  return d.value();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;  // the 8th field
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t bytes_under(const fs::path& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().filename().string().rfind(prefix, 0) != 0) continue;
    total += it->file_size(ec);
  }
  return total;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
    throw std::runtime_error("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

core::RbacDataset load_repeatedly(const fs::path& dir, int times, Tracer& tracer,
                                  Samples& setup) {
  std::optional<core::RbacDataset> dataset;
  for (int i = 0; i < times; ++i) {
    dataset.reset();
    const double t0 = thread_cpu_s();
    auto span = tracer.span("io", "io::load_dataset");
    dataset.emplace(rolediet::io::load_dataset(dir));
    setup.add(thread_cpu_s() - t0);
  }
  return std::move(*dataset);
}

void record_shape(const core::RbacDataset& dataset, Result& result) {
  result.shape["users"] = static_cast<double>(dataset.num_users());
  result.shape["roles"] = static_cast<double>(dataset.num_roles());
  result.shape["permissions"] = static_cast<double>(dataset.num_permissions());
  result.shape["edges"] = static_cast<double>(dataset.ruam().nnz() + dataset.rpam().nnz());
}

}  // namespace perfbench
