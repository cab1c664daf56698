// perfbench_run: runs one benchmark workload on inputs perfbench_gen wrote,
// checks every answer, and writes the result as JSON.
//
//   perfbench_run --workload NAME --input DIR --work DIR --result FILE
//                 [--seconds S] [--trace 0|1] [--seed N] [--scale full|tiny]
//                 [--plant-fault]
//
// A traced run also writes trace-WORKLOAD-seedN.json (Chrome trace events)
// and layers-WORKLOAD-seedN.tsv (self time per layer) beside FILE.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage or
// input error.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "io/json_writer.hpp"
#include "linalg/kernels/kernels.hpp"
#include "store/engine_store.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& message) {
  throw std::invalid_argument(message);
}

void write_metrics(rolediet::io::JsonWriter& w, const std::map<std::string, Metric>& metrics) {
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.key("samples");
    w.value(static_cast<std::uint64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
}

void print_metrics(const char* title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-34s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
}

int run(int argc, char** argv) {
  Context ctx;
  fs::path result_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") ctx.workload = next();
    else if (arg == "--input") ctx.input = next();
    else if (arg == "--work") ctx.work = next();
    else if (arg == "--result") result_path = next();
    else if (arg == "--seconds") ctx.seconds = std::stod(next());
    else if (arg == "--trace") ctx.trace = next() == "1";
    else if (arg == "--seed") ctx.seed = std::stoull(next());
    else if (arg == "--scale") ctx.scale.tiny = next() == "tiny";
    else if (arg == "--plant-fault") ctx.plant_fault = true;
    else usage("unknown argument " + arg);
  }
  if (ctx.workload.empty() || ctx.input.empty() || ctx.work.empty() || result_path.empty())
    usage("--workload, --input, --work and --result are required");
  if (!(ctx.seconds >= 0.0)) usage("--seconds must be >= 0");

  const std::string run_id = ctx.workload + "-seed" + std::to_string(ctx.seed);
  Tracer tracer(ctx.trace, run_id);
  ctx.tracer = &tracer;
  fs::remove_all(ctx.work);
  fs::create_directories(ctx.work);

  Result result;
  const double steal_start = host_steal_s();
  if (ctx.workload == "org-audit") {
    run_org_audit(ctx, result);
  } else if (ctx.workload == "churn-serve") {
    run_churn_serve(ctx, 0, result);
  } else if (ctx.workload == "churn-serve-s4") {
    run_churn_serve(ctx, 4, result);
  } else if (ctx.workload == "churn-mine") {
    run_churn_mine(ctx, result);
  } else {
    usage("unknown workload " + ctx.workload);
  }
  fs::remove_all(ctx.work);
  result.shape["host_steal_s"] = host_steal_s() - steal_start;

  if (ctx.trace) {
    // "bench" spans are the benchmark's own code (operation roots, waits).
    for (const auto& [layer, seconds] : tracer.layer_self_seconds())
      if (layer != "bench") result.set_layer(layer + ".self_s", seconds, "s", 1);
    result.set_layer("trace.spans", static_cast<double>(tracer.spans().size()), "count", 1);
    result.set_layer("overhead.peak_rss_mb",
                     static_cast<double>(tracer.buffer_bytes()) / (1024.0 * 1024.0), "MB", 1);
    const fs::path dir = result_path.parent_path();
    const fs::path trace_file = dir / ("trace-" + run_id + ".json");
    const fs::path layer_file = dir / ("layers-" + run_id + ".tsv");
    tracer.write_chrome_trace(trace_file);
    tracer.write_layer_table(layer_file);
    std::printf("trace: %s\nper-layer self time: %s\n", trace_file.c_str(), layer_file.c_str());
  }

  namespace kernels = rolediet::linalg::kernels;
  rolediet::io::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(ctx.workload);
  w.key("seed");
  w.value(ctx.seed);
  w.key("trace");
  w.value(ctx.trace);
  w.key("correct");
  w.value(result.failed == 0);
  w.key("attempted");
  w.value(result.attempted);
  w.key("failed");
  w.value(result.failed);
  w.key("failures");
  w.begin_array();
  for (const std::string& f : result.failures) w.value(f);
  w.end_array();
  w.key("end_to_end");
  write_metrics(w, result.end_to_end);
  w.key("named");
  write_metrics(w, result.named);
  w.key("per_layer");
  write_metrics(w, result.per_layer);
  w.key("meta");
  w.begin_object();
  w.key("kernel_target");
  w.value(kernels::to_string(kernels::active_isa()));
  w.key("capabilities");
  w.value(kernels::capability_string());
  w.key("library_threads");
  w.value(static_cast<std::uint64_t>(audit_options().threads));
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("fsync");
  w.value(rolediet::store::to_string(rolediet::store::StoreOptions{}.fsync));
  w.key("scale");
  w.value(ctx.scale.tiny ? "tiny" : "full");
  w.key("seconds");
  w.value(ctx.seconds);
  w.key("shape");
  w.begin_object();
  for (const auto& [name, value] : result.shape) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.end_object();
  w.end_object();
  std::ofstream out(result_path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write " + result_path.string());

  std::printf("workload %s, seed %llu, kernel %s (%s)\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed),
              std::string(kernels::to_string(kernels::active_isa())).c_str(),
              kernels::capability_string().c_str());
  for (const auto& [name, value] : result.shape)
    std::printf("  shape %-28s %.6g\n", name.c_str(), value);
  print_metrics("end-to-end (gated):", result.end_to_end);
  print_metrics("end-to-end (by path):", result.named);
  if (ctx.trace) print_metrics("per-layer (traced):", result.per_layer);
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& f : result.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
}
