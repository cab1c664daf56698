// org-audit: CSV -> audit -> JSON report on the paper-scale organisation
// (the paper's Section IV-B experiment). io and core do all the work.
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/engine.hpp"
#include "io/json_writer.hpp"

namespace perfbench {

namespace io = rolediet::io;

namespace {

constexpr int kSetups = 5;
constexpr std::size_t kMinOps = 5;
constexpr double kMB = 1024.0 * 1024.0;

std::map<std::string, std::size_t> read_truth(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::map<std::string, std::size_t> truth;
  std::string key;
  std::size_t value = 0;
  while (in >> key >> value) truth[key] = value;
  return truth;
}

/// Findings recover at least the planted ground truth.
bool covers_truth(const core::AuditReport& r, const std::map<std::string, std::size_t>& t) {
  const core::StructuralFindings& s = r.structural;
  const std::map<std::string, std::size_t> found = {
      {"standalone_users", s.standalone_users.size()},
      {"standalone_permissions", s.standalone_permissions.size()},
      {"standalone_roles", s.standalone_roles.size()},
      {"roles_without_users", s.roles_without_users.size()},
      {"roles_without_permissions", s.roles_without_permissions.size()},
      {"single_user_roles", s.single_user_roles.size()},
      {"single_permission_roles", s.single_permission_roles.size()},
      {"roles_in_same_user_groups", r.same_user_groups.roles_in_groups()},
      {"roles_in_same_permission_groups", r.same_permission_groups.roles_in_groups()},
      {"roles_in_similar_user_groups", r.similar_user_groups.roles_in_groups()},
      {"roles_in_similar_permission_groups", r.similar_permission_groups.roles_in_groups()},
  };
  if (t.size() != found.size()) return false;
  for (const auto& [key, planted] : t) {
    const auto it = found.find(key);
    if (it == found.end() || it->second < planted) return false;
  }
  return true;
}

struct Pass {
  Samples setup;    ///< io::load_dataset, thread processor seconds
  Samples op;       ///< audit + JSON report, thread processor seconds
  Samples op_wall;  ///< the same, wall seconds
  // Breakdown of the traced operation, wall seconds.
  Samples build, reaudit, report_json, structural, same, similar, report_mb;
  core::FinderWorkStats work;
  double peak_rss_mb = 0.0;  ///< after the set-ups and the first kMinOps audits
};

}  // namespace

void run_org_audit(const Context& ctx, Result& result) {
  const fs::path dir = dataset_dir(ctx.input);
  const auto truth = read_truth(truth_file(ctx.input));
  const double csv_mb = static_cast<double>(bytes_under(dir)) / kMB;
  const core::AuditOptions options = audit_options();
  std::optional<std::uint64_t> reference_digest;
  bool truth_checked = false;
  std::size_t op_index = 0;

  // One pass: kSetups loads on fresh state, then audits for `seconds` (at
  // least kMinOps). Traced, the audit runs as the calls core::audit() makes.
  const auto pass = [&](Tracer& tracer, double seconds) {
    Pass p;
    const core::RbacDataset dataset = load_repeatedly(dir, kSetups, tracer, p.setup);
    record_shape(dataset, result);
    result.shape["csv_mb"] = csv_mb;

    const double start = now_s();
    while (p.op.size() < kMinOps || now_s() - start < seconds) {
      core::AuditReport report;
      std::string json;
      const double t0 = now_s();
      const double cpu0 = thread_cpu_s();
      if (!tracer.enabled()) {
        report = core::audit(dataset, options);
        json = io::report_to_json(report, dataset);
      } else {
        auto op = tracer.span("bench", "op");
        double t = now_s();
        std::optional<core::AuditEngine> engine;
        {
          auto span = tracer.span("core", "AuditEngine::AuditEngine");
          engine.emplace(dataset, options);
        }
        p.build.add(now_s() - t);
        t = now_s();
        {
          auto span = tracer.span("core", "AuditEngine::reaudit");
          report = engine->reaudit();
        }
        p.reaudit.add(now_s() - t);
        t = now_s();
        {
          auto span = tracer.span("io", "io::report_to_json");
          json = io::report_to_json(report, dataset);
        }
        p.report_json.add(now_s() - t);
        auto span = tracer.span("core", "AuditEngine::~AuditEngine");
        engine.reset();
      }
      p.op.add(thread_cpu_s() - cpu0);
      p.op_wall.add(now_s() - t0);
      p.report_mb.add(static_cast<double>(json.size()) / kMB);
      p.structural.add(report.structural_time.seconds);
      p.same.add(report.same_users_time.seconds + report.same_permissions_time.seconds);
      p.similar.add(report.similar_users_time.seconds + report.similar_permissions_time.seconds);
      p.work.pairs_evaluated = report.same_users_work.pairs_evaluated +
                               report.same_permissions_work.pairs_evaluated +
                               report.similar_users_work.pairs_evaluated +
                               report.similar_permissions_work.pairs_evaluated;
      p.work.pairs_matched = report.same_users_work.pairs_matched +
                             report.same_permissions_work.pairs_matched +
                             report.similar_users_work.pairs_matched +
                             report.similar_permissions_work.pairs_matched;

      std::uint64_t digest = findings_digest(report);
      if (ctx.plant_fault && op_index == 1) digest ^= 1;
      if (!reference_digest) reference_digest = digest;
      result.check(!json.empty() && digest == *reference_digest,
                   "audit " + std::to_string(op_index) + ": findings digest differs");
      if (!truth_checked) {
        result.check(covers_truth(report, truth), "findings miss the planted ground truth");
        truth_checked = true;
      }
      ++op_index;
      if (p.op.size() == kMinOps) p.peak_rss_mb = peak_rss_mb();
    }
    return p;
  };

  Tracer off(false, "");
  const Pass plain = pass(off, ctx.trace ? ctx.seconds / 2 : ctx.seconds);
  result.end_to_end["setup_s"] = Metric{plain.setup.median(), "s", plain.setup.size()};
  result.end_to_end["op_ms"] = Metric{plain.op.median() * 1e3, "ms", plain.op.size()};
  result.end_to_end["peak_rss_mb"] = Metric{plain.peak_rss_mb, "MB", kMinOps};
  result.named["setup_s"] = result.end_to_end["setup_s"];
  result.named["audit_s"] = Metric{plain.op_wall.median(), "s", plain.op_wall.size()};
  if (!ctx.trace) return;

  Tracer& tracer = *ctx.tracer;
  const Pass traced = pass(tracer, ctx.seconds / 2);
  const std::size_t n = traced.op.size();
  result.set_layer("io.load_s", traced.setup.median(), "s", traced.setup.size());
  result.set_layer("io.load_mb_per_s", csv_mb / traced.setup.median(), "MB/s",
                   traced.setup.size());
  result.set_layer("core.engine_build_s", traced.build.median(), "s", n);
  result.set_layer("core.full_reaudit_s", traced.reaudit.median(), "s", n);
  result.set_layer("core.phase.structural_s", traced.structural.median(), "s", n);
  result.set_layer("core.phase.same_s", traced.same.median(), "s", n);
  result.set_layer("core.phase.similar_s", traced.similar.median(), "s", n);
  result.set_layer("core.pairs_evaluated", static_cast<double>(traced.work.pairs_evaluated),
                   "count", 1);
  result.set_layer("core.pairs_matched", static_cast<double>(traced.work.pairs_matched), "count",
                   1);
  result.set_layer("core.match_ratio",
                   traced.work.pairs_evaluated == 0
                       ? 0.0
                       : static_cast<double>(traced.work.pairs_matched) /
                             static_cast<double>(traced.work.pairs_evaluated),
                   "ratio", 1);
  result.set_layer("io.report_json_s", traced.report_json.median(), "s", n);
  result.set_layer("io.report_mb", traced.report_mb.median(), "MB", n);
  result.set_layer("trace.coverage", tracer.coverage("op"), "ratio", n);
  result.set_layer("overhead.setup_s", traced.setup.median() - plain.setup.median(), "s",
                   traced.setup.size());
  result.set_layer("overhead.op_ms", (traced.op.median() - plain.op.median()) * 1e3, "ms", n);
}

}  // namespace perfbench
