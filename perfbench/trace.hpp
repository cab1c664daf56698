// In-memory span recorder for the traced benchmark run.
//
// The benchmark times each layer from outside: a span wraps one public call
// the workload makes into a layer (io, core, shard, store, service, mining).
// Spans nest per thread; the enclosing span on the same thread is the parent.
// When tracing is off, Tracer::span() returns an inert guard after one branch.
//
// At exit the spans are written as Chrome trace-event JSON (loadable by
// Perfetto or chrome://tracing) and summarised as per-layer self time: a
// span's duration minus the part of it its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint32_t thread = 0;  ///< small per-thread id
  };

  /// Ends its span on destruction; inert when tracing is off.
  class Guard {
   public:
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() {
      if (tracer_ != nullptr) tracer_->end(index_);
    }

   private:
    friend class Tracer;
    Guard(Tracer* tracer, std::int64_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::int64_t index_;
  };

  Tracer(bool enabled, std::string run_id);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Guard span(const char* layer, const char* name);

  /// Snapshot of the recorded spans (call after every traced thread joined).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Self time per layer over all spans, seconds.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Share of the wall time of every root span named `op` that its child
  /// spans cover (0 when no such span exists).
  [[nodiscard]] double coverage(const std::string& op) const;

  void write_chrome_trace(const std::filesystem::path& path) const;
  void write_layer_table(const std::filesystem::path& path) const;

  /// Bytes held by the span buffer (the tracing memory overhead).
  [[nodiscard]] std::size_t buffer_bytes() const;

 private:
  /// Nanoseconds on the trace clock (steady, relative to construction).
  [[nodiscard]] std::int64_t now_ns() const;
  void end(std::int64_t index);
  [[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans) const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
