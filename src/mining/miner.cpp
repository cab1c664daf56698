#include "mining/miner.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/consolidation.hpp"
#include "mining/biclique.hpp"
#include "mining/upa.hpp"
#include "util/bitops.hpp"
#include "util/execution_context.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rolediet::mining {

namespace {

/// A candidate role with its supporting classes.
struct Candidate {
  std::vector<core::Id> perms;         ///< sorted permission ids
  std::vector<std::uint32_t> support;  ///< classes whose row contains perms, ascending
  bool usable = false;                 ///< support known: carried, or computed before the deadline
};

/// Marginal effect of selecting a candidate in the current coverage state.
struct Marginal {
  std::uint64_t gain = 0;   ///< newly covered UPA cells (class-weighted)
  std::uint64_t users = 0;  ///< users the role would be assigned to now
};

/// A role of the draft decomposition under construction.
struct DraftRole {
  std::vector<core::Id> perms;
  std::vector<std::uint32_t> classes;  ///< assigned classes, in assignment order
};

/// Max-heap entry for the lazy-greedy loop: highest score first, then lowest
/// candidate index — the deterministic tie-break.
struct HeapEntry {
  double score;
  std::uint32_t idx;
  bool operator<(const HeapEntry& other) const noexcept {
    if (score != other.score) return score < other.score;
    return idx > other.idx;
  }
};

std::uint64_t combined_digest(std::span<const std::uint32_t> perms,
                              std::span<const std::uint32_t> users) {
  return linalg::csr_row_digest(perms) * 0x9E3779B97F4A7C15ULL ^ linalg::csr_row_digest(users);
}

}  // namespace

MiningPlan plan_mining(const core::RbacDataset& dataset, const MiningOptions& options) {
  if (options.role_weight < 0.0 || options.edge_weight < 0.0 ||
      options.role_weight + options.edge_weight <= 0.0) {
    throw std::invalid_argument("mining: cost weights must be >= 0 and not both 0");
  }
  const std::size_t perm_cap = options.max_perms_per_role;
  const std::size_t role_cap = options.max_roles_per_user;
  // Roles needed to cover n permissions under the perms-per-role cap.
  const auto chunks_needed = [perm_cap](std::size_t n) -> std::size_t {
    if (n == 0) return 0;
    return perm_cap == 0 ? 1 : (n + perm_cap - 1) / perm_cap;
  };

  MiningPlan plan;
  plan.options = options;
  plan.stats.users = dataset.num_users();
  plan.stats.permissions = dataset.num_permissions();
  plan.stats.roles_before = dataset.num_roles();
  plan.stats.assignments_before = dataset.ruam().nnz();
  plan.stats.grants_before = dataset.rpam().nnz();

  const util::ExecutionContext ctx(options.time_budget_s);
  util::Stopwatch watch;

  const UpaClasses upa = build_upa_classes(dataset, options.backend);
  plan.stats.user_classes = upa.num_classes();
  plan.stats.upa_cells = upa.cells;
  const std::size_t num_classes = upa.num_classes();

  // Up-front cap feasibility: every class row must fit in the role budget.
  if (role_cap != 0) {
    for (std::size_t cls = 0; cls < num_classes; ++cls) {
      const std::size_t need = chunks_needed(upa.rows.row_size(cls));
      if (need > role_cap) {
        throw std::invalid_argument(
            "mining: user '" + dataset.user_name(upa.members[cls].front()) + "' needs " +
            std::to_string(need) + " roles to cover " +
            std::to_string(upa.rows.row_size(cls)) + " permissions under --max-perms-per-role " +
            std::to_string(perm_cap) + ", but --max-roles-per-user is " +
            std::to_string(role_cap));
      }
    }
  }

  // ---- 1. candidate enumeration -------------------------------------------
  BicliqueOptions biclique_options;
  biclique_options.max_candidates = options.max_candidates;
  CandidateSet closed = enumerate_closed_sets(upa, biclique_options, ctx);
  plan.stats.candidates = closed.permission_sets.size();
  plan.stats.enumeration_truncated = closed.truncated;

  // ---- 2. cap-chunking + dedup into the selection pool --------------------
  // A closed set that fits the cap enters with the support the enumerator
  // carried; chunks and role sets get theirs in step 3 (a chunk's support
  // can be wider than its set's).
  std::vector<Candidate> pool;
  {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> dedup;
    auto add_chunk = [&](std::vector<core::Id>&& chunk, std::vector<std::uint32_t>* support) {
      const std::uint64_t digest = linalg::csr_row_digest(chunk);
      std::vector<std::uint32_t>& bucket = dedup[digest];
      for (const std::uint32_t idx : bucket) {
        if (linalg::csr_rows_equal(pool[idx].perms, chunk)) return;
      }
      bucket.push_back(static_cast<std::uint32_t>(pool.size()));
      Candidate& cand = pool.emplace_back();
      cand.perms = std::move(chunk);
      if (support != nullptr) {
        cand.support = std::move(*support);
        cand.usable = true;
      }
    };
    const auto add_set = [&](std::vector<core::Id>&& set, std::vector<std::uint32_t>* support) {
      if (perm_cap == 0 || set.size() <= perm_cap) {
        add_chunk(std::move(set), support);
        return;
      }
      for (std::size_t begin = 0; begin < set.size(); begin += perm_cap) {
        const std::size_t end = std::min(begin + perm_cap, set.size());
        add_chunk(std::vector<core::Id>(set.begin() + static_cast<std::ptrdiff_t>(begin),
                                        set.begin() + static_cast<std::ptrdiff_t>(end)),
                  nullptr);
      }
    };
    for (std::size_t i = 0; i < closed.permission_sets.size(); ++i) {
      add_set(std::move(closed.permission_sets[i]), &closed.supports[i]);
    }
    // Seed the pool with the dataset's own role permission sets too: on
    // workloads with little biclique structure the closed sets alone can be
    // a worse vocabulary than the decomposition that already exists, and
    // these sets let the greedy pass reconstruct it (dedup drops the many
    // duplicates; support computation treats them like any candidate).
    for (core::Id r = 0; r < static_cast<core::Id>(dataset.num_roles()); ++r) {
      const auto set = dataset.permissions_of_role(r);
      if (!set.empty()) add_set(std::vector<core::Id>(set.begin(), set.end()), nullptr);
    }
  }
  plan.stats.candidate_pool = pool.size();

  // ---- 3. support computation for the rest (RowStore containment) ---------
  // support(K) = classes whose row contains K. The inverted index narrows
  // the search to the classes holding K's rarest permission; the packed
  // containment check |K ∩ row| == |K| runs on the shared RowStore backend,
  // which dispatches the PR 7 batch kernels on the dense path.
  std::vector<std::vector<std::uint32_t>> perm_classes(upa.num_permissions);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    for (const std::uint32_t perm : upa.rows.row(cls)) {
      perm_classes[perm].push_back(static_cast<std::uint32_t>(cls));
    }
  }
  const linalg::RowStore store = upa.store();
  const std::size_t packed_words = util::words_for_bits(upa.num_permissions);
  util::Parallelism exec(options.threads);
  exec.parallel_for(
      pool.size(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> packed(packed_words, 0);
        for (std::size_t i = begin; i < end; ++i) {
          if ((i - begin) % 64 == 0 && ctx.expired()) return;  // rest stay unusable
          Candidate& cand = pool[i];
          if (cand.usable) continue;  // a closed set: support carried
          const std::vector<core::Id>& perms = cand.perms;
          std::uint32_t rarest = perms.front();
          for (const std::uint32_t perm : perms) {
            if (perm_classes[perm].size() < perm_classes[rarest].size()) rarest = perm;
          }
          for (const std::uint32_t perm : perms) packed[perm / 64] |= 1ull << (perm % 64);
          for (const std::uint32_t cls : perm_classes[rarest]) {
            if (store.intersection_with_packed(packed, cls) == perms.size()) {
              cand.support.push_back(cls);
            }
          }
          for (const std::uint32_t perm : perms) packed[perm / 64] = 0;
          cand.usable = true;
        }
      },
      /*grain=*/64);
  plan.stats.enumerate_seconds = watch.seconds();
  watch.restart();

  const std::span<const std::size_t> row_ptr = upa.rows.row_ptr();

  // Position of permission `perm` within class row `cls` (must be present).
  const auto position_of = [&](std::size_t cls, std::uint32_t perm) -> std::size_t {
    const auto row = upa.rows.row(cls);
    const auto it = std::lower_bound(row.begin(), row.end(), perm);
    return row_ptr[cls] + static_cast<std::size_t>(it - row.begin());
  };

  struct SelectionResult {
    std::vector<DraftRole> draft;
    std::vector<std::vector<std::uint32_t>> final_classes;  ///< per draft role
    std::size_t selected = 0;
    std::size_t mopup = 0;
    std::size_t pruned_assignments = 0;
    std::size_t pruned_roles = 0;
    bool truncated = false;
    std::size_t roles = 0;        ///< non-empty roles after pruning
    std::size_t assignments = 0;  ///< user->role edges after pruning
    std::size_t grants = 0;       ///< role->permission edges after pruning
  };

  // Every pass starts from empty coverage, so a candidate's first marginal
  // is the same in all of them: score the pool once. With nothing covered a
  // supporting class gains all of the candidate's permissions, subject to
  // the feasibility guard below at zero roles used.
  std::vector<Marginal> opening(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Candidate& cand = pool[i];
    if (!cand.usable) continue;
    for (const std::uint32_t cls : cand.support) {
      const std::size_t row_size = upa.rows.row_size(cls);
      if (role_cap != 0 && chunks_needed(row_size - cand.perms.size()) > role_cap - 1) continue;
      opening[i].gain += static_cast<std::uint64_t>(upa.weight(cls)) * cand.perms.size();
      opening[i].users += upa.weight(cls);
    }
  }

  // ---- 4. one constrained greedy pass, parameterized by the edge emphasis -
  // Covers steps 4-6 of the pipeline: lazy-greedy set cover, mop-up, pruning.
  // `edge_ratio` is the internal score denominator weight: cells covered per
  // unit of 1 + edge_ratio * (assignments + grants the role adds NOW).
  const auto run_selection = [&](double edge_ratio) -> SelectionResult {
    SelectionResult res;

    // Coverage state, flat over the class matrix cells.
    std::vector<char> covered(upa.rows.nnz(), 0);
    std::vector<std::size_t> uncovered(num_classes);
    std::vector<std::size_t> used_roles(num_classes, 0);
    std::size_t total_uncovered = 0;
    for (std::size_t cls = 0; cls < num_classes; ++cls) {
      uncovered[cls] = upa.rows.row_size(cls);
      total_uncovered += uncovered[cls];
    }

    // Feasibility guard (Blundo & Cimato): assigning one more role to `cls`
    // must leave enough budget for the worst-case residual cover.
    const auto cap_ok = [&](std::uint32_t cls, std::size_t newly) -> bool {
      if (role_cap == 0) return true;
      const std::size_t used_after = used_roles[cls] + 1;
      if (used_after > role_cap) return false;
      return chunks_needed(uncovered[cls] - newly) <= role_cap - used_after;
    };

    // Marginal effect: newly covered UPA cells (class-weighted) over the
    // classes this candidate may still be assigned to, plus the users those
    // assignments would touch.
    const auto marginal_of = [&](const Candidate& cand) -> Marginal {
      Marginal m;
      for (const std::uint32_t cls : cand.support) {
        if (uncovered[cls] == 0) continue;
        std::size_t newly = 0;
        for (const std::uint32_t perm : cand.perms) {
          if (covered[position_of(cls, perm)] == 0) ++newly;
        }
        if (newly != 0 && cap_ok(cls, newly)) {
          m.gain += static_cast<std::uint64_t>(upa.weight(cls)) * newly;
          m.users += upa.weight(cls);
        }
      }
      return m;
    };
    const auto score_of = [&](const Candidate& cand, const Marginal& m) -> double {
      const double cost = 1.0 + edge_ratio * static_cast<double>(m.users + cand.perms.size());
      return static_cast<double>(m.gain) / cost;
    };

    // (score, index) is a strict total order, so the pop order does not
    // depend on how the heap was built.
    std::vector<HeapEntry> entries;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (opening[i].gain != 0) {
        entries.push_back({score_of(pool[i], opening[i]), static_cast<std::uint32_t>(i)});
      }
    }
    std::priority_queue<HeapEntry> heap(std::less<HeapEntry>{}, std::move(entries));

    std::vector<DraftRole>& draft = res.draft;
    while (!heap.empty() && total_uncovered != 0) {
      if (ctx.expired()) {
        res.truncated = true;
        break;
      }
      const HeapEntry top = heap.top();
      heap.pop();
      const Candidate& cand = pool[top.idx];
      const Marginal m = marginal_of(cand);
      if (m.gain == 0) continue;
      const double score = score_of(cand, m);
      if (!heap.empty()) {
        const HeapEntry& next = heap.top();
        // Lazy re-evaluation. Marginal gains mostly shrink as coverage grows,
        // so the re-push usually reproduces eager greedy exactly; a
        // roles-per-user cap or the dynamic edge term can let a score recover,
        // making the pick heuristic there — still deterministic, still safe,
        // just not provably the eager choice.
        if (score < next.score || (score == next.score && top.idx > next.idx)) {
          heap.push({score, top.idx});
          continue;
        }
      }
      DraftRole role;
      role.perms = cand.perms;
      for (const std::uint32_t cls : cand.support) {
        if (uncovered[cls] == 0) continue;
        std::size_t newly = 0;
        for (const std::uint32_t perm : cand.perms) {
          if (covered[position_of(cls, perm)] == 0) ++newly;
        }
        if (newly == 0 || !cap_ok(cls, newly)) continue;
        for (const std::uint32_t perm : cand.perms) covered[position_of(cls, perm)] = 1;
        uncovered[cls] -= newly;
        total_uncovered -= newly;
        ++used_roles[cls];
        role.classes.push_back(cls);
      }
      draft.push_back(std::move(role));
      ++res.selected;
    }

    // ---- 5. mop-up: complete coverage with deduplicated residual roles ----
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> role_by_perms;
    for (std::size_t r = 0; r < draft.size(); ++r) {
      role_by_perms[linalg::csr_row_digest(draft[r].perms)].push_back(
          static_cast<std::uint32_t>(r));
    }
    for (std::uint32_t cls = 0; cls < static_cast<std::uint32_t>(num_classes); ++cls) {
      if (uncovered[cls] == 0) continue;
      const auto row = upa.rows.row(cls);
      std::vector<core::Id> residual;
      residual.reserve(uncovered[cls]);
      for (std::size_t k = 0; k < row.size(); ++k) {
        if (covered[row_ptr[cls] + k] == 0) residual.push_back(row[k]);
      }
      for (std::size_t begin = 0; begin < residual.size();
           begin += perm_cap == 0 ? residual.size() : perm_cap) {
        const std::size_t end =
            perm_cap == 0 ? residual.size() : std::min(begin + perm_cap, residual.size());
        std::vector<core::Id> chunk(residual.begin() + static_cast<std::ptrdiff_t>(begin),
                                    residual.begin() + static_cast<std::ptrdiff_t>(end));
        const std::uint64_t digest = linalg::csr_row_digest(chunk);
        std::vector<std::uint32_t>& bucket = role_by_perms[digest];
        std::uint32_t target = static_cast<std::uint32_t>(draft.size());
        for (const std::uint32_t r : bucket) {
          if (linalg::csr_rows_equal(draft[r].perms, chunk)) {
            target = r;
            break;
          }
        }
        if (target == draft.size()) {
          bucket.push_back(target);
          draft.push_back(DraftRole{std::move(chunk), {cls}});
          ++res.mopup;
        } else {
          draft[target].classes.push_back(cls);
        }
        ++used_roles[cls];
      }
      total_uncovered -= uncovered[cls];
      for (std::size_t k = 0; k < row.size(); ++k) covered[row_ptr[cls] + k] = 1;
      uncovered[cls] = 0;
    }

    // ---- 6. pruning: redundant assignments (reverse order), empty roles ---
    std::vector<std::vector<std::uint32_t>> class_roles(num_classes);
    for (std::size_t r = 0; r < draft.size(); ++r) {
      for (const std::uint32_t cls : draft[r].classes) {
        class_roles[cls].push_back(static_cast<std::uint32_t>(r));
      }
    }
    std::vector<std::uint32_t> cover_count(upa.rows.nnz(), 0);
    for (std::size_t cls = 0; cls < num_classes; ++cls) {
      for (const std::uint32_t r : class_roles[cls]) {
        for (const std::uint32_t perm : draft[r].perms) ++cover_count[position_of(cls, perm)];
      }
    }
    res.final_classes.resize(draft.size());
    for (std::size_t cls = 0; cls < num_classes; ++cls) {
      std::vector<std::uint32_t>& roles = class_roles[cls];
      std::vector<char> keep(roles.size(), 1);
      for (std::size_t k = roles.size(); k-- > 0;) {
        const std::uint32_t r = roles[k];
        bool redundant = true;
        for (const std::uint32_t perm : draft[r].perms) {
          if (cover_count[position_of(cls, perm)] < 2) {
            redundant = false;
            break;
          }
        }
        if (!redundant) continue;
        for (const std::uint32_t perm : draft[r].perms) --cover_count[position_of(cls, perm)];
        keep[k] = 0;
        ++res.pruned_assignments;
      }
      for (std::size_t k = 0; k < roles.size(); ++k) {
        if (keep[k] != 0) res.final_classes[roles[k]].push_back(static_cast<std::uint32_t>(cls));
      }
    }

    for (std::size_t r = 0; r < draft.size(); ++r) {
      if (res.final_classes[r].empty()) {
        ++res.pruned_roles;
        continue;
      }
      ++res.roles;
      for (const std::uint32_t cls : res.final_classes[r]) res.assignments += upa.weight(cls);
      res.grants += draft[r].perms.size();
    }
    return res;
  };

  // ---- 7. portfolio scalarization -----------------------------------------
  // One greedy pass per fixed edge-emphasis ratio; the user's weights pick
  // the winner by minimizing role_weight * roles + edge_weight * edges.
  // Because the argmin runs over a FIXED portfolio (the ladder never depends
  // on the user's weights), the knob is provably monotone: for w2 > w1 the
  // two optimality inequalities sum to (w2 - w1) * (E2 - E1) <= 0, so raising
  // edge_weight never increases the winning plan's edge count.
  static constexpr double kEdgeRatios[] = {0.0, 0.0625, 0.25, 1.0, 4.0};
  std::vector<SelectionResult> portfolio;
  for (const double ratio : kEdgeRatios) {
    // Always produce the first (complete, mopped-up) plan; a fired deadline
    // only shrinks the rest of the ladder.
    if (!portfolio.empty() && ctx.expired()) break;
    portfolio.push_back(run_selection(ratio));
  }
  const auto objective = [&](const SelectionResult& r) -> double {
    return options.role_weight * static_cast<double>(r.roles) +
           options.edge_weight * static_cast<double>(r.assignments + r.grants);
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < portfolio.size(); ++i) {
    const double delta = objective(portfolio[i]) - objective(portfolio[best]);
    const bool fewer_edges = portfolio[i].assignments + portfolio[i].grants <
                             portfolio[best].assignments + portfolio[best].grants;
    if (delta < 0.0 || (delta == 0.0 && fewer_edges)) best = i;
  }
  SelectionResult& sel = portfolio[best];
  const std::vector<DraftRole>& draft = sel.draft;
  const std::vector<std::vector<std::uint32_t>>& final_classes = sel.final_classes;
  plan.stats.portfolio_plans = portfolio.size();
  plan.stats.selected_candidates = sel.selected;
  plan.stats.mopup_roles = sel.mopup;
  plan.stats.pruned_assignments = sel.pruned_assignments;
  plan.stats.pruned_roles = sel.pruned_roles;
  plan.stats.selection_truncated = sel.truncated;

  // ---- 7b. duplicate-merge fallback ---------------------------------------
  // The consolidation of the input (the paper's safe cleanup) competes in
  // the same scalarized argmin whenever it satisfies the caps. On workloads
  // with little biclique structure the rebuilt decomposition can be worse
  // than the one that exists; this entry makes the emitted plan provably no
  // worse than the duplicate-merge baseline under the user's weights. The
  // entry does not depend on the weights, so the monotonicity argument above
  // is unchanged.
  if (!ctx.expired()) {
    const core::RbacDataset merged = core::consolidate_duplicates(dataset);
    bool fallback_fits_caps = true;
    if (perm_cap != 0) {
      for (core::Id r = 0; r < static_cast<core::Id>(merged.num_roles()); ++r) {
        if (merged.permissions_of_role(r).size() > perm_cap) {
          fallback_fits_caps = false;
          break;
        }
      }
    }
    if (fallback_fits_caps && role_cap != 0) {
      std::vector<std::size_t> roles_held(merged.num_users(), 0);
      for (core::Id r = 0; r < static_cast<core::Id>(merged.num_roles()); ++r) {
        for (const core::Id user : merged.users_of_role(r)) ++roles_held[user];
      }
      for (const std::size_t held : roles_held) {
        if (held > role_cap) {
          fallback_fits_caps = false;
          break;
        }
      }
    }
    if (fallback_fits_caps) {
      const double fallback_objective =
          options.role_weight * static_cast<double>(merged.num_roles()) +
          options.edge_weight * static_cast<double>(merged.ruam().nnz() + merged.rpam().nnz());
      if (fallback_objective < objective(sel)) {
        plan.stats.used_duplicate_merge_fallback = true;
        for (core::Id r = 0; r < static_cast<core::Id>(merged.num_roles()); ++r) {
          MinedRole role;
          role.name = merged.role_name(r);
          const auto perms = merged.permissions_of_role(r);
          const auto users = merged.users_of_role(r);
          role.permissions.assign(perms.begin(), perms.end());
          role.users.assign(users.begin(), users.end());
          plan.stats.assignments_after += role.users.size();
          plan.stats.grants_after += role.permissions.size();
          plan.roles.push_back(std::move(role));
        }
        plan.stats.roles_after = plan.roles.size();
        plan.stats.select_seconds = watch.seconds();
        return plan;
      }
    }
  }

  // ---- 8. emit roles, reusing original names for unchanged roles ----------
  std::unordered_map<std::uint64_t, std::vector<core::Id>> original_by_content;
  for (core::Id r = 0; r < static_cast<core::Id>(dataset.num_roles()); ++r) {
    original_by_content[combined_digest(dataset.permissions_of_role(r), dataset.users_of_role(r))]
        .push_back(r);
  }
  std::vector<char> original_taken(dataset.num_roles(), 0);
  std::vector<std::size_t> synthetic;  // plan indices needing a generated name
  std::unordered_map<std::string, char> reused_names;
  for (std::size_t r = 0; r < draft.size(); ++r) {
    if (final_classes[r].empty()) continue;
    MinedRole role;
    role.permissions = draft[r].perms;
    std::size_t user_count = 0;
    for (const std::uint32_t cls : final_classes[r]) user_count += upa.weight(cls);
    role.users.reserve(user_count);
    for (const std::uint32_t cls : final_classes[r]) {
      role.users.insert(role.users.end(), upa.members[cls].begin(), upa.members[cls].end());
    }
    std::sort(role.users.begin(), role.users.end());
    // A role identical to an original (same permissions AND same users)
    // keeps its name; everything else gets a synthetic one below.
    const auto hit = original_by_content.find(combined_digest(role.permissions, role.users));
    if (hit != original_by_content.end()) {
      for (const core::Id orig : hit->second) {
        if (original_taken[orig] != 0) continue;
        if (!linalg::csr_rows_equal(dataset.permissions_of_role(orig), role.permissions) ||
            !linalg::csr_rows_equal(dataset.users_of_role(orig), role.users)) {
          continue;
        }
        original_taken[orig] = 1;
        role.name = dataset.role_name(orig);
        reused_names.emplace(role.name, 1);
        break;
      }
    }
    if (role.name.empty()) synthetic.push_back(plan.roles.size());
    plan.stats.assignments_after += role.users.size();
    plan.stats.grants_after += role.permissions.size();
    plan.roles.push_back(std::move(role));
  }
  std::size_t counter = 0;
  for (const std::size_t plan_idx : synthetic) {
    std::string name = "mined-" + std::to_string(counter++);
    while (reused_names.contains(name)) name = "mined-" + std::to_string(counter++);
    plan.roles[plan_idx].name = std::move(name);
  }
  plan.stats.roles_after = plan.roles.size();
  plan.stats.select_seconds = watch.seconds();
  return plan;
}

std::string MiningPlan::to_text() const {
  std::ostringstream out;
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "role mining plan: %zu -> %zu roles (%.1f%% reduction)\n",
                stats.roles_before, stats.roles_after, stats.role_reduction() * 100.0);
  out << buffer;
  out << "  upa: " << stats.users << " users (" << stats.user_classes << " classes), "
      << stats.permissions << " permissions, " << stats.upa_cells << " cells\n";
  out << "  candidates: " << stats.candidates << " closed sets (pool " << stats.candidate_pool
      << ")" << (stats.enumeration_truncated ? ", truncated" : "") << "\n";
  out << "  roles: " << stats.selected_candidates << " selected + " << stats.mopup_roles
      << " mop-up (best of " << stats.portfolio_plans << "-plan portfolio)"
      << (stats.selection_truncated ? " (selection cut by budget)" : "") << "; pruned "
      << stats.pruned_assignments << " assignments, " << stats.pruned_roles << " roles\n";
  out << "  edges: " << stats.assignments_before << " assignments + " << stats.grants_before
      << " grants -> " << stats.assignments_after << " + " << stats.grants_after << "\n";
  if (stats.used_duplicate_merge_fallback) {
    out << "  plan: duplicate-merge fallback (every greedy pass was worse under this cost)\n";
  }
  out << "  constraints: roles/user";
  if (options.max_roles_per_user != 0) {
    out << " <= " << options.max_roles_per_user;
  } else {
    out << " unlimited";
  }
  out << ", perms/role";
  if (options.max_perms_per_role != 0) {
    out << " <= " << options.max_perms_per_role;
  } else {
    out << " unlimited";
  }
  std::snprintf(buffer, sizeof buffer, "; cost %g:%g\n", options.role_weight,
                options.edge_weight);
  out << buffer;
  return out.str();
}

core::RbacDataset apply_mining(const core::RbacDataset& dataset, const MiningPlan& plan) {
  core::RbacDataset out;
  // Users and permissions verbatim, in id order, so ids are preserved and
  // verify_equivalence can compare per-user permission sets directly.
  for (core::Id u = 0; u < static_cast<core::Id>(dataset.num_users()); ++u) {
    out.add_user(dataset.user_name(u));
  }
  for (core::Id p = 0; p < static_cast<core::Id>(dataset.num_permissions()); ++p) {
    out.add_permission(dataset.permission_name(p));
  }
  for (const MinedRole& role : plan.roles) {
    const core::Id r = out.add_role(role.name);
    for (const core::Id perm : role.permissions) out.grant_permission(r, perm);
    for (const core::Id user : role.users) out.assign_user(r, user);
  }
  return out;
}

MiningOutcome mine(const core::RbacDataset& dataset, const MiningOptions& options) {
  MiningOutcome outcome;
  outcome.plan = plan_mining(dataset, options);
  outcome.migrated = apply_mining(dataset, outcome.plan);
  util::Stopwatch watch;
  outcome.verified = core::verify_equivalence(dataset, outcome.migrated);
  outcome.plan.stats.verify_seconds = watch.seconds();
  return outcome;
}

}  // namespace rolediet::mining
