// Minimal JSON emitter + audit-report serialization.
//
// The library has no external dependencies, so reports are serialized with a
// small hand-rolled writer: supports objects, arrays, strings (with escape
// handling), integers, doubles, and booleans — enough for machine-readable
// audit output that downstream tooling (dashboards, ticket generators) can
// ingest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/framework.hpp"

namespace rolediet::io {

/// Streaming JSON writer. Usage:
///   JsonWriter w; w.begin_object(); w.key("n"); w.value(3); w.end_object();
/// Nesting and comma placement are tracked internally; misuse (e.g. a value
/// where a key is required) throws std::logic_error.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view name);
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(std::int64_t n);
  void value(std::uint64_t n);
  void value(double d);
  void value(bool b);
  void null();

  /// The finished document. Valid once all containers are closed. An
  /// rvalue writer hands its buffer over instead of copying it.
  [[nodiscard]] std::string str() const&;
  [[nodiscard]] std::string str() &&;

 private:
  enum class Frame { kObjectExpectKey, kObjectExpectValue, kArray };

  void before_value();
  void raw(std::string_view text) { out_.append(text); }
  void write_escaped(std::string_view s);
  void check_closed() const;

  std::string out_;  ///< the document so far; every token appends to it
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
};

/// Serializes a full audit report, including group member role *names*
/// resolved against the dataset the audit ran on.
[[nodiscard]] std::string report_to_json(const core::AuditReport& report,
                                         const core::RbacDataset& dataset);

}  // namespace rolediet::io
