// churn-mine: role mining on the final state of a one-year, 1,200-employee
// churn lifecycle. mining and the batched linalg intersections do the work;
// the candidate set stays under the cap, so a faster enumerator must emit the
// same plan, which the recorded plan sizes per seed pin.
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "core/consolidation.hpp"
#include "io/csv.hpp"
#include "mining/biclique.hpp"
#include "mining/miner.hpp"
#include "mining/upa.hpp"

namespace perfbench {

namespace io = rolediet::io;
namespace mining = rolediet::mining;

namespace {

// Each mine runs on a fresh load, after kLoadsPerMine loads of the CSV that
// time the set-up. A load takes 1-2 ms, and the host's speed changes over
// seconds, so set-ups spread over the run give a steadier median than the
// same number in one burst.
constexpr int kLoadsPerMine = 20;
constexpr std::size_t kMinOps = 5;

/// Plan sizes recorded for the lifecycle at each scale. Every seed mines a
/// relabelling of the same lifecycle, so the sizes hold for every seed.
struct Recorded {
  std::size_t employees, roles, edges;
};
constexpr Recorded kRecorded[] = {{1'200, 73, 2'657}, {300, 21, 636}};

struct Pass {
  Samples setup;    ///< io::load_dataset, thread processor seconds
  Samples op;       ///< mining::mine including verification, thread processor seconds
  Samples op_wall;  ///< the same, wall seconds
  // Breakdown of the traced operation, wall seconds: the UPA call is timed
  // here; enumeration and selection are plan_mining's own stopwatch readings.
  Samples upa, enumerate, select, verify;
  mining::MiningStats stats;
  double peak_rss_mb = 0.0;  ///< after the first kMinOps loads and mines
};

}  // namespace

void run_churn_mine(const Context& ctx, Result& result) {
  const fs::path dir = dataset_dir(ctx.input);
  std::optional<Recorded> expected;
  for (const Recorded& r : kRecorded)
    if (r.employees == ctx.scale.mine_employees()) expected = r;
  if (!expected) throw std::logic_error("no recorded plan sizes for this scale");
  const mining::MiningOptions options;
  std::size_t op_index = 0;

  const auto pass = [&](Tracer& tracer, double seconds) {
    Pass p;
    const double start = now_s();
    while (p.op.size() < kMinOps || now_s() - start < seconds) {
      const core::RbacDataset dataset = load_repeatedly(dir, kLoadsPerMine, tracer, p.setup);
      if (p.op.empty()) record_shape(dataset, result);
      mining::MiningPlan plan;
      bool verified = false;
      const double t0 = now_s();
      const double cpu0 = thread_cpu_s();
      if (!tracer.enabled()) {
        mining::MiningOutcome outcome = mining::mine(dataset, options);
        verified = outcome.verified;
        plan = std::move(outcome.plan);
      } else {
        // The calls mining::mine() makes, one span each, plus the UPA build
        // on its own so plan_mining's first stopwatch reading can be split.
        auto op = tracer.span("bench", "op");
        double t = now_s();
        {
          auto span = tracer.span("mining", "mining::build_upa_classes");
          (void)mining::build_upa_classes(dataset, options.backend);
        }
        const double upa_s = now_s() - t;
        {
          auto span = tracer.span("mining", "mining::plan_mining");
          plan = mining::plan_mining(dataset, options);
        }
        // enumerate_seconds runs from the UPA build to the end of pool
        // building, so candidate chunking and support lists count as
        // enumeration.
        p.upa.add(upa_s);
        p.enumerate.add(plan.stats.enumerate_seconds - upa_s);
        p.select.add(plan.stats.select_seconds);
        t = now_s();
        std::optional<core::RbacDataset> migrated;
        {
          auto span = tracer.span("mining", "mining::apply_mining");
          migrated.emplace(mining::apply_mining(dataset, plan));
        }
        {
          auto span = tracer.span("core", "core::verify_equivalence");
          verified = core::verify_equivalence(dataset, *migrated);
        }
        p.verify.add(now_s() - t);
      }
      p.op.add(thread_cpu_s() - cpu0);
      p.op_wall.add(now_s() - t0);
      p.stats = plan.stats;

      if (ctx.plant_fault && op_index == 0) verified = false;
      const std::size_t roles = plan.stats.roles_after;
      const std::size_t edges = plan.stats.edges_after();
      result.check(verified && !plan.stats.enumeration_truncated,
                   "mine " + std::to_string(op_index) + ": plan not verified or truncated");
      result.check(roles == expected->roles && edges == expected->edges,
                   "mine " + std::to_string(op_index) + ": plan has " + std::to_string(roles) +
                       " roles, " + std::to_string(edges) + " edges; recorded " +
                       std::to_string(expected->roles) + ", " + std::to_string(expected->edges));
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
  result.named["mine_s"] = Metric{plain.op_wall.median(), "s", plain.op_wall.size()};
  result.named["mine_roles"] =
      Metric{static_cast<double>(plain.stats.roles_after), "count", plain.op.size()};
  result.named["mine_edges"] =
      Metric{static_cast<double>(plain.stats.edges_after()), "count", plain.op.size()};
  result.shape["candidates"] = static_cast<double>(plain.stats.candidates);
  if (!ctx.trace) return;

  Tracer& tracer = *ctx.tracer;
  const Pass traced = pass(tracer, ctx.seconds / 2);
  const std::size_t n = traced.op.size();

  // The number of intersections is not in MiningStats: one enumeration
  // outside the timed passes counts them (the count is the same every call).
  const core::RbacDataset dataset = io::load_dataset(dir);
  mining::BicliqueOptions biclique;
  biclique.max_candidates = options.max_candidates;
  biclique.threads = options.threads;
  const std::size_t intersections =
      mining::enumerate_closed_sets(mining::build_upa_classes(dataset, options.backend), biclique)
          .intersections;
  const mining::MiningStats& stats = traced.stats;

  result.set_layer("io.load_s", traced.setup.median(), "s", traced.setup.size());
  result.set_layer("io.load_mb_per_s",
                   static_cast<double>(bytes_under(dir)) / (1024.0 * 1024.0) /
                       traced.setup.median(),
                   "MB/s", traced.setup.size());
  result.set_layer("mining.upa_s", traced.upa.median(), "s", n);
  result.set_layer("mining.classes", static_cast<double>(stats.user_classes), "count", 1);
  result.set_layer("mining.upa_cells", static_cast<double>(stats.upa_cells), "count", 1);
  result.set_layer("mining.enumerate_s", traced.enumerate.median(), "s", n);
  result.set_layer("mining.candidates", static_cast<double>(stats.candidates), "count", 1);
  result.set_layer("mining.intersections", static_cast<double>(intersections), "count", 1);
  result.set_layer("mining.closed_per_intersection",
                   intersections == 0 ? 0.0
                                      : static_cast<double>(stats.candidates - stats.user_classes) /
                                            static_cast<double>(intersections),
                   "ratio", 1);
  result.set_layer("mining.select_s", traced.select.median(), "s", n);
  result.set_layer("mining.portfolio_plans", static_cast<double>(stats.portfolio_plans), "count",
                   1);
  result.set_layer("mining.verify_s", traced.verify.median(), "s", n);
  result.set_layer("trace.coverage", tracer.coverage("op"), "ratio", n);
  result.set_layer("overhead.setup_s", traced.setup.median() - plain.setup.median(), "s",
                   traced.setup.size());
  result.set_layer("overhead.op_ms", (traced.op.median() - plain.op.median()) * 1e3, "ms", n);
}

}  // namespace perfbench
