#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

#include "io/json_writer.hpp"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (one tracer per process).
thread_local std::vector<std::int64_t> open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

Tracer::Guard Tracer::span(const char* layer, const char* name) {
  if (!enabled_) return Guard(nullptr, -1);
  Span span{name, layer, now_ns(), 0, open_spans.empty() ? -1 : open_spans.back(),
            thread_number()};
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  return Guard(this, index);
}

void Tracer::end(std::int64_t index) {
  const std::int64_t t = now_ns();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Tracer::buffer_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = spans_.capacity() * sizeof(Span);
  for (const Span& s : spans_) bytes += s.name.capacity() + s.layer.capacity();
  return bytes;
}

// Children of one span run on its thread and nest inside it, so they never
// overlap each other: self time is the duration minus the children's sum.
std::vector<double> Tracer::self_seconds(const std::vector<Span>& spans) const {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
  for (const Span& s : spans) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) by_layer[all[i].layer] += self[i];
  return by_layer;
}

double Tracer::coverage(const std::string& op) const {
  const std::vector<Span> all = spans();
  std::vector<double> covered(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  }
  double total = 0.0;
  double children = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != -1 || all[i].name != op) continue;
    total += static_cast<double>(all[i].end_ns - all[i].start_ns);
    children += covered[i];
  }
  return total > 0.0 ? children / total : 0.0;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  rolediet::io::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value(s.layer);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<double>(s.start_ns) * 1e-3);
    w.key("dur");
    w.value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{s.thread});
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::int64_t>(i));
    w.key("parent");
    w.value(s.parent);
    w.key("run");
    w.value(run_id_);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void Tracer::write_layer_table(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  std::map<std::string, Row> layers;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double dur = static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    Row& row = rows[{all[i].layer, all[i].name}];
    ++row.calls;
    row.total += dur;
    row.self += self[i];
    Row& layer = layers[all[i].layer];
    ++layer.calls;
    layer.total += dur;
    layer.self += self[i];
  }
  std::ofstream out(path);
  out << "# run " << run_id_ << "\n";
  out << "layer\tspan\tcalls\ttotal_s\tself_s\n";
  for (const auto& [layer, row] : layers)
    out << layer << "\t*\t" << row.calls << '\t' << row.total << '\t' << row.self << '\n';
  for (const auto& [key, row] : rows)
    out << key.first << '\t' << key.second << '\t' << row.calls << '\t' << row.total << '\t'
        << row.self << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace perfbench
