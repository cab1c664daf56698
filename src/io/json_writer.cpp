#include "io/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "core/consolidation.hpp"
#include "core/remediation.hpp"

namespace rolediet::io {

void JsonWriter::before_value() {
  if (!stack_.empty() && stack_.back() == Frame::kObjectExpectKey)
    throw std::logic_error("JsonWriter: value emitted where a key is required");
  if (needs_comma_) raw(",");
  if (!stack_.empty() && stack_.back() == Frame::kObjectExpectValue)
    stack_.back() = Frame::kObjectExpectKey;
}

void JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back(Frame::kObjectExpectKey);
  needs_comma_ = false;
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() == Frame::kArray)
    throw std::logic_error("JsonWriter: end_object outside an object");
  if (stack_.back() == Frame::kObjectExpectValue)
    throw std::logic_error("JsonWriter: end_object after a dangling key");
  stack_.pop_back();
  raw("}");
  needs_comma_ = true;
}

void JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back(Frame::kArray);
  needs_comma_ = false;
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray)
    throw std::logic_error("JsonWriter: end_array outside an array");
  stack_.pop_back();
  raw("]");
  needs_comma_ = true;
}

void JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != Frame::kObjectExpectKey)
    throw std::logic_error("JsonWriter: key outside an object or after another key");
  if (needs_comma_) raw(",");
  write_escaped(name);
  raw(":");
  stack_.back() = Frame::kObjectExpectValue;
  needs_comma_ = false;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  write_escaped(s);
  needs_comma_ = true;
}

namespace {

/// Appends the decimal form of `n` (what `ostream << n` writes).
template <typename Integer>
void append_integer(std::string& out, Integer n) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, end);
}

}  // namespace

void JsonWriter::value(std::int64_t n) {
  before_value();
  append_integer(out_, n);
  needs_comma_ = true;
}

void JsonWriter::value(std::uint64_t n) {
  before_value();
  append_integer(out_, n);
  needs_comma_ = true;
}

void JsonWriter::value(double d) {
  before_value();
  if (!std::isfinite(d)) {
    raw("null");  // JSON has no NaN/Inf
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", d);
    raw(buf);
  }
  needs_comma_ = true;
}

void JsonWriter::value(bool b) {
  before_value();
  raw(b ? "true" : "false");
  needs_comma_ = true;
}

void JsonWriter::null() {
  before_value();
  raw("null");
  needs_comma_ = true;
}

void JsonWriter::check_closed() const {
  if (!stack_.empty()) throw std::logic_error("JsonWriter: unclosed containers");
}

std::string JsonWriter::str() const& {
  check_closed();
  return out_;
}

std::string JsonWriter::str() && {
  check_closed();
  return std::move(out_);
}

void JsonWriter::write_escaped(std::string_view s) {
  out_ += '"';
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out_.append(s.substr(run, i - run));
    run = i + 1;
    if (escape != nullptr) {
      out_.append(escape);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_.append(buf);
    }
  }
  out_.append(s.substr(run));
  out_ += '"';
}

namespace {

void write_id_list(JsonWriter& w, const char* name, const std::vector<core::Id>& ids) {
  w.key(name);
  w.begin_array();
  for (core::Id id : ids) w.value(static_cast<std::uint64_t>(id));
  w.end_array();
}

void write_groups(JsonWriter& w, const char* name, const core::RoleGroups& groups,
                  const core::RbacDataset& dataset) {
  w.key(name);
  w.begin_array();
  for (const auto& group : groups.groups) {
    w.begin_array();
    for (std::size_t role : group) w.value(dataset.role_name(static_cast<core::Id>(role)));
    w.end_array();
  }
  w.end_array();
}

void write_phase(JsonWriter& w, const char* name, const core::PhaseTiming& timing) {
  w.key(name);
  w.begin_object();
  w.key("seconds");
  w.value(timing.seconds);
  w.key("timed_out");
  w.value(timing.timed_out);
  w.end_object();
}

/// Group-finding phases also carry the finder's work counters, so a
/// budget-truncated phase is auditable from the report alone (how much of
/// the candidate space was covered before the deadline hit).
void write_phase(JsonWriter& w, const char* name, const core::PhaseTiming& timing,
                 const core::FinderWorkStats& work) {
  w.key(name);
  w.begin_object();
  w.key("seconds");
  w.value(timing.seconds);
  w.key("timed_out");
  w.value(timing.timed_out);
  w.key("work");
  w.begin_object();
  w.key("rows_processed");
  w.value(work.rows_processed);
  w.key("pairs_evaluated");
  w.value(work.pairs_evaluated);
  w.key("pairs_matched");
  w.value(work.pairs_matched);
  w.key("merges");
  w.value(work.merges);
  w.key("merge_conflicts");
  w.value(work.merge_conflicts);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string report_to_json(const core::AuditReport& report, const core::RbacDataset& dataset) {
  JsonWriter w;
  w.begin_object();
  w.key("method");
  w.value(report.method_name);

  // Provenance: which dataset version (and exact content) produced this
  // report, so it can be matched to the durable-store state it describes.
  w.key("engine_version");
  w.value(report.engine_version);
  {
    char digest_buf[24];
    std::snprintf(digest_buf, sizeof(digest_buf), "%016llx",
                  static_cast<unsigned long long>(report.dataset_digest));
    w.key("dataset_digest");
    w.value(digest_buf);
  }

  // Resolved options echoed verbatim, so a stored report says how it was
  // produced without the invoking command line.
  w.key("options");
  w.begin_object();
  w.key("method");
  w.value(core::to_string(report.options.method));
  w.key("detect_similar");
  w.value(report.options.detect_similar);
  w.key("similarity_mode");
  w.value(report.options.similarity_mode == core::SimilarityMode::kJaccard ? "jaccard"
                                                                           : "hamming");
  w.key("similarity_threshold");
  w.value(report.options.similarity_threshold);
  w.key("jaccard_dissimilarity");
  w.value(report.options.jaccard_dissimilarity);
  w.key("time_budget_s");
  w.value(report.options.time_budget_s);
  w.key("threads");
  w.value(report.options.threads);
  w.key("backend");
  w.value(linalg::to_string(report.options.backend));
  w.end_object();

  w.key("dataset");
  w.begin_object();
  w.key("users");
  w.value(report.num_users);
  w.key("roles");
  w.value(report.num_roles);
  w.key("permissions");
  w.value(report.num_permissions);
  w.key("user_assignments");
  w.value(report.num_user_assignments);
  w.key("permission_grants");
  w.value(report.num_permission_grants);
  w.end_object();

  w.key("structural");
  w.begin_object();
  write_id_list(w, "standalone_users", report.structural.standalone_users);
  write_id_list(w, "standalone_roles", report.structural.standalone_roles);
  write_id_list(w, "standalone_permissions", report.structural.standalone_permissions);
  write_id_list(w, "roles_without_users", report.structural.roles_without_users);
  write_id_list(w, "roles_without_permissions", report.structural.roles_without_permissions);
  write_id_list(w, "single_user_roles", report.structural.single_user_roles);
  write_id_list(w, "single_permission_roles", report.structural.single_permission_roles);
  w.end_object();

  w.key("similarity_mode");
  w.value(report.similarity_mode == core::SimilarityMode::kJaccard ? "jaccard" : "hamming");
  w.key("similarity_threshold");
  w.value(report.similarity_threshold);
  w.key("jaccard_dissimilarity");
  w.value(report.jaccard_dissimilarity);
  write_groups(w, "same_user_groups", report.same_user_groups, dataset);
  write_groups(w, "same_permission_groups", report.same_permission_groups, dataset);
  write_groups(w, "similar_user_groups", report.similar_user_groups, dataset);
  write_groups(w, "similar_permission_groups", report.similar_permission_groups, dataset);

  w.key("timing");
  w.begin_object();
  write_phase(w, "structural", report.structural_time);
  write_phase(w, "same_users", report.same_users_time, report.same_users_work);
  write_phase(w, "same_permissions", report.same_permissions_time, report.same_permissions_work);
  write_phase(w, "similar_users", report.similar_users_time, report.similar_users_work);
  write_phase(w, "similar_permissions", report.similar_permissions_time,
              report.similar_permissions_work);
  w.key("total_seconds");
  w.value(report.total_seconds());
  w.end_object();

  w.key("reducible_roles");
  w.value(report.reducible_roles());

  // Reduction counters: the plan sizes the standard cleanup passes would
  // produce from this report, so `consolidate`/`diet` and `mine` output are
  // comparable against one audit without re-deriving the plans downstream.
  {
    const core::ConsolidationPlan same_users = core::plan_consolidation(
        dataset, report.same_user_groups, core::MergeKind::kSameUsers);
    const core::ConsolidationPlan same_perms = core::plan_consolidation(
        dataset, report.same_permission_groups, core::MergeKind::kSamePermissions);
    std::unordered_set<core::Id> absorbed;
    for (const auto& merge : same_users.merges)
      absorbed.insert(merge.absorbed.begin(), merge.absorbed.end());
    for (const auto& merge : same_perms.merges)
      absorbed.insert(merge.absorbed.begin(), merge.absorbed.end());
    const core::RemediationPlan remediation = core::plan_remediation(dataset, report);
    w.key("reduction");
    w.begin_object();
    w.key("consolidation");
    w.begin_object();
    w.key("same_users_merge_groups");
    w.value(same_users.merges.size());
    w.key("same_permissions_merge_groups");
    w.value(same_perms.merges.size());
    // A role can be absorbable along both axes; it is counted once.
    w.key("roles_removed");
    w.value(absorbed.size());
    w.end_object();
    w.key("remediation");
    w.begin_object();
    w.key("removed_roles");
    w.value(remediation.remove_roles.size());
    w.key("merge_by_permission_groups");
    w.value(remediation.merge_by_permission.size());
    w.key("merge_by_user_groups");
    w.value(remediation.merge_by_user.size());
    w.key("roles_removed");
    w.value(remediation.roles_removed());
    w.end_object();
    w.end_object();
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace rolediet::io
