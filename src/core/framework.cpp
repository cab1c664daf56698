#include "core/framework.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/methods/approx.hpp"
#include "core/methods/cooccurrence.hpp"
#include "core/methods/exact.hpp"
#include "core/methods/minhash_lsh.hpp"
#include "util/timer.hpp"

namespace rolediet::core {

std::unique_ptr<GroupFinder> make_group_finder(Method method) {
  return make_group_finder(method, GroupFinderOptions{});
}

std::unique_ptr<GroupFinder> make_group_finder(Method method, const GroupFinderOptions& options) {
  switch (method) {
    case Method::kExactDbscan: {
      methods::DbscanGroupFinder::Options opts;
      opts.threads = options.threads;
      opts.backend = options.backend;
      return std::make_unique<methods::DbscanGroupFinder>(opts);
    }
    case Method::kApproxHnsw: {
      methods::HnswGroupFinder::Options opts;
      opts.threads = options.threads;
      opts.backend = options.backend;
      return std::make_unique<methods::HnswGroupFinder>(opts);
    }
    case Method::kApproxMinhash: {
      methods::MinHashGroupFinder::Options opts;
      opts.lsh.threads = options.threads;
      opts.backend = options.backend;
      return std::make_unique<methods::MinHashGroupFinder>(opts);
    }
    case Method::kRoleDiet: {
      methods::RoleDietGroupFinder::Options opts;
      opts.threads = options.threads;
      return std::make_unique<methods::RoleDietGroupFinder>(opts);
    }
  }
  return nullptr;
}

double AuditReport::total_seconds() const noexcept {
  // Timed-out phases count too: a phase the budget stopped mid-flight
  // consumed real wall time (skipped phases contribute their 0).
  return structural_time.seconds + same_users_time.seconds + same_permissions_time.seconds +
         similar_users_time.seconds + similar_permissions_time.seconds;
}

std::string AuditReport::to_text() const {
  std::ostringstream out;
  auto phase_note = [](const PhaseTiming& t) -> std::string {
    if (!t.timed_out) return " (" + util::format_duration(t.seconds) + ")";
    if (t.seconds > 0.0) {
      return " [timed out after " + util::format_duration(t.seconds) + ": partial groups]";
    }
    return " [skipped: time budget exhausted]";
  };

  out << "RBAC inefficiency audit (method: " << method_name << ")\n";
  out << "  options: threads=" << options.threads
      << ", backend=" << linalg::to_string(options.backend);
  if (options.time_budget_s > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", options.time_budget_s);
    out << ", budget=" << buf << "s";
  } else {
    out << ", budget=unlimited";
  }
  if (!options.detect_similar) out << ", similar=off";
  out << "\n";
  out << "  dataset: " << num_users << " users, " << num_roles << " roles, "
      << num_permissions << " permissions; " << num_user_assignments
      << " user assignments, " << num_permission_grants << " permission grants\n";
  {
    char digest_buf[24];
    std::snprintf(digest_buf, sizeof(digest_buf), "%016llx",
                  static_cast<unsigned long long>(dataset_digest));
    out << "  state: engine version " << engine_version << ", dataset digest " << digest_buf
        << "\n";
  }
  out << "  [type 1] standalone users:        " << structural.standalone_users.size() << "\n";
  out << "  [type 1] standalone roles:        " << structural.standalone_roles.size() << "\n";
  out << "  [type 1] standalone permissions:  " << structural.standalone_permissions.size()
      << "\n";
  out << "  [type 2] roles without users:     " << structural.roles_without_users.size() << "\n";
  out << "  [type 2] roles without perms:     " << structural.roles_without_permissions.size()
      << "\n";
  out << "  [type 3] single-user roles:       " << structural.single_user_roles.size() << "\n";
  out << "  [type 3] single-permission roles: " << structural.single_permission_roles.size()
      << "\n";
  out << "  [type 4] same-users groups:       " << same_user_groups.group_count() << " groups / "
      << same_user_groups.roles_in_groups() << " roles" << phase_note(same_users_time) << "\n";
  out << "  [type 4] same-permissions groups: " << same_permission_groups.group_count()
      << " groups / " << same_permission_groups.roles_in_groups() << " roles"
      << phase_note(same_permissions_time) << "\n";
  std::string threshold_label;
  if (similarity_mode == SimilarityMode::kHamming) {
    threshold_label = "t=" + std::to_string(similarity_threshold);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "j<=%.2f", jaccard_dissimilarity);
    threshold_label = buf;
  }
  out << "  [type 5] similar-users (" << threshold_label
      << "):     " << similar_user_groups.group_count() << " groups / "
      << similar_user_groups.roles_in_groups() << " roles" << phase_note(similar_users_time)
      << "\n";
  out << "  [type 5] similar-perms (" << threshold_label
      << "):     " << similar_permission_groups.group_count() << " groups / "
      << similar_permission_groups.roles_in_groups() << " roles"
      << phase_note(similar_permissions_time) << "\n";
  out << "  consolidating type-4 groups would remove " << reducible_roles() << " of "
      << num_roles << " roles\n";
  std::size_t rows = 0;
  std::size_t pairs = 0;
  std::size_t matched = 0;
  for (const FinderWorkStats* work : {&same_users_work, &same_permissions_work,
                                      &similar_users_work, &similar_permissions_work}) {
    rows += work->rows_processed;
    pairs += work->pairs_evaluated;
    matched += work->pairs_matched;
  }
  out << "  finder work: " << rows << " rows processed, " << pairs << " pairs evaluated, "
      << matched << " matched\n";
  out << "  total detection time: " << util::format_duration(total_seconds()) << "\n";
  return out.str();
}

void validate_audit_options(const AuditOptions& options) {
  // Misconfigured options fail loudly instead of silently running with, say,
  // a negative budget treated as "unlimited" (cli.cpp keeps its own messages).
  if (!(options.jaccard_dissimilarity >= 0.0 && options.jaccard_dissimilarity <= 1.0)) {
    throw std::invalid_argument(
        "audit: AuditOptions::jaccard_dissimilarity must be within [0, 1]");
  }
  if (!std::isfinite(options.time_budget_s) || options.time_budget_s < 0.0) {
    throw std::invalid_argument(
        "audit: AuditOptions::time_budget_s must be finite and >= 0 (0 = unlimited)");
  }
}

AuditReport audit(const RbacDataset& dataset, const AuditOptions& options) {
  // The engine's first re-audit is the full batch pass (engine.cpp), so this
  // wrapper is behavior- and byte-compatible with the historical one-shot
  // implementation.
  AuditEngine engine(dataset, options);
  return engine.reaudit();
}

}  // namespace rolediet::core
