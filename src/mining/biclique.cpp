#include "mining/biclique.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "util/bitops.hpp"

namespace rolediet::mining {

namespace {

using Row = std::span<const core::Id>;

/// Deadline checks happen once per this many closures.
constexpr std::size_t kClosureBatch = 64;

/// Keeps the entries of v[from..] that `row` also holds (both ascending).
void retain_common(std::vector<core::Id>& v, std::size_t from, Row row) {
  std::size_t kept = from;
  auto it = row.begin();
  for (std::size_t i = from; i < v.size() && it != row.end();) {
    if (*it < v[i]) {
      ++it;
    } else {
      if (*it == v[i]) {
        v[kept++] = v[i];
        ++it;
      }
      ++i;
    }
  }
  v.resize(kept);
}

/// Permission ids seen at one search node, handed back in ascending order
/// without a sort: a bitmap plus one summary bit per non-zero bitmap word,
/// so a scan costs one word per 4,096 ids.
class ItemSet {
 public:
  explicit ItemSet(std::size_t universe)
      : words_(util::words_for_bits(universe), 0),
        summary_(util::words_for_bits(words_.size()), 0) {}

  void insert(std::uint32_t item) noexcept {
    std::uint64_t& word = words_[item / 64];
    if (word == 0) summary_[item / 4096] |= std::uint64_t{1} << (item / 64 % 64);
    word |= std::uint64_t{1} << (item % 64);
  }

  /// Appends the members to `out`, ascending, and empties the set.
  void drain(std::vector<std::uint32_t>& out) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t bits = std::exchange(summary_[s], 0); bits != 0; bits &= bits - 1) {
        const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        for (std::uint64_t word = std::exchange(words_[w], 0); word != 0; word &= word - 1) {
          out.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

/// One node of the depth-first search.
struct Frame {
  std::vector<core::Id> items;           ///< the closed set P, ascending
  std::vector<core::Id> added;           ///< P minus the parent's set
  std::vector<std::uint32_t> occ;        ///< classes whose row contains P, ascending
  std::vector<std::uint32_t> ext;        ///< extension items with support >= 2, ascending
  std::vector<std::uint32_t> ext_begin;  ///< ext.size() + 1 offsets into `flat`
  std::vector<std::uint32_t> flat;       ///< occ(P + ext[k]) = flat[ext_begin[k] .. ext_begin[k+1])
  std::size_t next = 0;                  ///< next extension to try
};

class Enumerator {
 public:
  Enumerator(const UpaClasses& upa, std::size_t cap, const util::ExecutionContext& ctx,
             CandidateSet& out)
      : upa_(upa),
        cap_(cap),
        ctx_(ctx),
        out_(out),
        in_p_(util::words_for_bits(upa.num_permissions), 0),
        slot_(upa.num_permissions, 0),
        touched_(upa.num_permissions) {}

  void run() {
    const std::size_t n = upa_.num_classes();
    if (n == 0) return;
    frames_.resize(1);
    Frame& root = frames_[0];
    root.occ.resize(n);
    std::iota(root.occ.begin(), root.occ.end(), std::uint32_t{0});
    // The root is closure(empty set): every class supports it. Item 0 never
    // rejects (nothing lies below it), so the closure computes the plain
    // intersection of all rows.
    (void)closure(0, root.occ, root.items);
    ++out_.intersections;
    enter(root);
    deliver(root, 0);
    fill_seed_supports();
    if (!root.items.empty() && !visit(root.items, root.occ)) return;
    search();
  }

 private:
  [[nodiscard]] bool in_p(std::uint32_t item) const noexcept {
    return ((in_p_[item / 64] >> (item % 64)) & 1) != 0;
  }

  /// Marks the node's new items as members of the current P.
  void enter(Frame& f) {
    f.added.clear();
    for (const core::Id item : f.items) {
      if (in_p(item)) continue;
      f.added.push_back(item);
      in_p_[item / 64] |= std::uint64_t{1} << (item % 64);
    }
  }

  void leave(const Frame& f) noexcept {
    for (const core::Id item : f.added) in_p_[item / 64] &= ~(std::uint64_t{1} << (item % 64));
  }

  /// Builds f.ext / f.flat: the occurrence list of P + e for every item
  /// e >= first outside P held by at least two of P's classes. Two passes
  /// over the rows (count, then place) fill one flat array; the classes of
  /// each list come out ascending because f.occ is.
  void deliver(Frame& f, std::uint32_t first) {
    constexpr std::uint32_t kSkip = std::numeric_limits<std::uint32_t>::max();
    const auto tail = [&](std::uint32_t cls) {
      const Row row = upa_.rows.row(cls);
      return row.subspan(static_cast<std::size_t>(std::lower_bound(row.begin(), row.end(), first) -
                                                   row.begin()));
    };
    for (const std::uint32_t cls : f.occ) {
      for (const core::Id item : tail(cls)) {
        if (!in_p(item) && slot_[item]++ == 0) touched_.insert(item);
      }
    }
    order_.clear();
    touched_.drain(order_);
    f.ext.clear();
    f.ext_begin.clear();
    f.next = 0;
    std::uint32_t total = 0;
    for (const std::uint32_t item : order_) {
      const std::uint32_t count = slot_[item];
      if (count < 2) {
        slot_[item] = kSkip;
        continue;
      }
      f.ext.push_back(item);
      f.ext_begin.push_back(total);
      slot_[item] = total;
      total += count;
    }
    f.ext_begin.push_back(total);
    f.flat.resize(total);
    for (const std::uint32_t cls : f.occ) {
      for (const core::Id item : tail(cls)) {
        if (in_p(item) || slot_[item] == kSkip) continue;
        f.flat[slot_[item]++] = cls;
      }
    }
    for (const std::uint32_t item : order_) slot_[item] = 0;
  }

  /// closure(P + e) into `out` when it adds no item below e (the
  /// prefix-preserving test); false otherwise. `occ` = occ(P + e), >= 1 class.
  bool closure(std::uint32_t e, std::span<const std::uint32_t> occ,
               std::vector<core::Id>& out) {
    return upa_.dense.has_value() ? closure_dense(e, occ, out) : closure_sparse(e, occ, out);
  }

  bool closure_dense(std::uint32_t e, std::span<const std::uint32_t> occ,
                     std::vector<core::Id>& out) {
    const linalg::BitMatrix& dense = *upa_.dense;
    const std::size_t e_word = e / 64;
    const std::uint64_t below_e = (std::uint64_t{1} << (e % 64)) - 1;
    // Words below e: any bit outside P common to every row rejects.
    for (std::size_t w = 0; w <= e_word; ++w) {
      std::uint64_t extra = ~in_p_[w] & (w == e_word ? below_e : ~std::uint64_t{0});
      for (const std::uint32_t cls : occ) {
        if (extra == 0) break;
        extra &= dense.row(cls)[w];
      }
      if (extra != 0) return false;
    }
    // The prefix is P's; the rest is the AND of the rows from e's word on.
    out.clear();
    for (std::size_t w = 0; w < e_word; ++w) {
      for (std::uint64_t bits = in_p_[w]; bits != 0; bits &= bits - 1) {
        out.push_back(static_cast<core::Id>(w * 64 + std::countr_zero(bits)));
      }
    }
    for (std::size_t w = e_word; w < dense.words_per_row(); ++w) {
      std::uint64_t common = ~std::uint64_t{0};
      for (const std::uint32_t cls : occ) {
        common &= dense.row(cls)[w];
        if (common == 0) break;
      }
      if (w == e_word) common = (common & ~below_e) | (in_p_[w] & below_e);
      for (; common != 0; common &= common - 1) {
        out.push_back(static_cast<core::Id>(w * 64 + std::countr_zero(common)));
      }
    }
    return true;
  }

  bool closure_sparse(std::uint32_t e, std::span<const std::uint32_t> occ,
                      std::vector<core::Id>& out) {
    std::uint32_t pivot = occ.front();
    for (const std::uint32_t cls : occ) {
      if (upa_.rows.row_size(cls) < upa_.rows.row_size(pivot)) pivot = cls;
    }
    const Row pivot_row = upa_.rows.row(pivot);
    const auto pivot_e = std::lower_bound(pivot_row.begin(), pivot_row.end(), e);
    // Items below e outside P that every row holds would break the prefix.
    extra_.clear();
    for (auto it = pivot_row.begin(); it != pivot_e; ++it) {
      if (!in_p(*it)) extra_.push_back(*it);
    }
    for (const std::uint32_t cls : occ) {
      if (extra_.empty()) break;
      if (cls != pivot) retain_common(extra_, 0, upa_.rows.row(cls));
    }
    if (!extra_.empty()) return false;
    // Below e, Q is P (the pivot row's members in P); from e on, the merge.
    out.clear();
    for (auto it = pivot_row.begin(); it != pivot_e; ++it) {
      if (in_p(*it)) out.push_back(*it);
    }
    const std::size_t from = out.size();
    out.insert(out.end(), pivot_e, pivot_row.end());
    for (const std::uint32_t cls : occ) {
      if (cls == pivot) continue;
      const Row row = upa_.rows.row(cls);
      retain_common(out, from, row.subspan(static_cast<std::size_t>(
                                   std::lower_bound(row.begin(), row.end(), e) - row.begin())));
    }
    return true;
  }

  /// Records a closed set reached by the search: class rows were emitted up
  /// front, anything else is appended. False when the cap stops the search.
  bool visit(const std::vector<core::Id>& set, std::span<const std::uint32_t> occ) {
    for (const std::uint32_t cls : occ) {
      if (upa_.rows.row_size(cls) == set.size()) return true;  // row ⊇ set: it is the row
    }
    if (cap_ != 0 && out_.permission_sets.size() >= cap_) {
      out_.truncated = true;
      return false;
    }
    out_.permission_sets.push_back(set);
    out_.supports.emplace_back(occ.begin(), occ.end());
    return true;
  }

  /// Supports of the class rows, from the root's occurrence lists: a row's
  /// support lies inside the list of its rarest item outside the root
  /// closure, and an item held by one class pins the support to that class.
  void fill_seed_supports() {
    const Frame& root = frames_[0];
    const auto list_size = [&](std::size_t k) { return root.ext_begin[k + 1] - root.ext_begin[k]; };
    for (std::size_t k = 0; k < root.ext.size(); ++k) {
      slot_[root.ext[k]] = static_cast<std::uint32_t>(k + 1);
    }
    for (std::uint32_t cls = 0; cls < static_cast<std::uint32_t>(root.occ.size()); ++cls) {
      const Row row = upa_.rows.row(cls);
      std::size_t best = root.ext.size();
      bool alone = false;
      for (const core::Id item : row) {
        if (in_p(item)) continue;
        if (slot_[item] == 0) {
          alone = true;
          break;
        }
        const std::size_t k = slot_[item] - 1;
        if (best == root.ext.size() || list_size(k) < list_size(best)) best = k;
      }
      std::vector<std::uint32_t>& support = out_.supports[cls];
      if (alone) {
        support.assign(1, cls);
      } else if (best == root.ext.size()) {
        support = root.occ;  // the row is the root closure
      } else {
        for (std::uint32_t k = root.ext_begin[best]; k < root.ext_begin[best + 1]; ++k) {
          const std::uint32_t other = root.flat[k];
          if (other == cls || contains(other, cls)) support.push_back(other);
        }
      }
    }
    for (const std::uint32_t item : root.ext) slot_[item] = 0;
  }

  /// True when class `outer`'s row holds every item of class `inner`'s row.
  /// Exits at the first missing item, which a full RowStore intersection
  /// count cannot (about 4x slower on the paper-scale org's sparse UPA).
  [[nodiscard]] bool contains(std::uint32_t outer, std::uint32_t inner) const {
    if (upa_.rows.row_size(outer) < upa_.rows.row_size(inner)) return false;
    if (upa_.dense.has_value()) {
      const auto a = upa_.dense->row(outer);
      const auto b = upa_.dense->row(inner);
      for (std::size_t w = 0; w < a.size(); ++w) {
        if ((b[w] & ~a[w]) != 0) return false;
      }
      return true;
    }
    const Row a = upa_.rows.row(outer);
    const Row b = upa_.rows.row(inner);
    return std::includes(a.begin(), a.end(), b.begin(), b.end());
  }

  void search() {
    std::size_t depth = 0;
    while (true) {
      if (frames_.size() == depth + 1) frames_.emplace_back();
      Frame& f = frames_[depth];
      if (f.next == f.ext.size()) {
        if (depth == 0) return;
        leave(f);
        --depth;
        continue;
      }
      const std::size_t k = f.next++;
      const std::uint32_t e = f.ext[k];
      const std::span<const std::uint32_t> occ(f.flat.data() + f.ext_begin[k],
                                               f.ext_begin[k + 1] - f.ext_begin[k]);
      if (out_.intersections % kClosureBatch == 0 && ctx_.expired()) {
        out_.truncated = true;
        return;
      }
      ++out_.intersections;
      Frame& child = frames_[depth + 1];
      if (!closure(e, occ, child.items)) continue;
      if (!visit(child.items, occ)) return;
      child.occ.assign(occ.begin(), occ.end());
      enter(child);
      deliver(child, e + 1);
      ++depth;
    }
  }

  const UpaClasses& upa_;
  const std::size_t cap_;
  const util::ExecutionContext& ctx_;
  CandidateSet& out_;
  std::vector<Frame> frames_;
  std::vector<std::uint64_t> in_p_;    ///< bitmap of the current node's P
  /// Per-item scratch, 0 between uses: in deliver() a count, then a fill
  /// cursor; in fill_seed_supports() the root list index + 1.
  std::vector<std::uint32_t> slot_;
  ItemSet touched_;
  std::vector<std::uint32_t> order_;   ///< the current node's touched items, ascending
  std::vector<core::Id> extra_;        ///< sparse closure scratch
};

}  // namespace

CandidateSet enumerate_closed_sets(const UpaClasses& upa, const BicliqueOptions& options,
                                   const util::ExecutionContext& ctx) {
  CandidateSet result;
  const std::size_t num_seeds = upa.num_classes();
  result.num_seeds = num_seeds;
  result.permission_sets.reserve(num_seeds);
  for (std::size_t cls = 0; cls < num_seeds; ++cls) {
    const auto row = upa.rows.row(cls);
    result.permission_sets.emplace_back(row.begin(), row.end());
  }
  result.supports.resize(num_seeds);
  const std::size_t cap =
      options.max_candidates == 0 ? 0 : std::max(options.max_candidates, num_seeds);
  Enumerator(upa, cap, ctx, result).run();
  return result;
}

}  // namespace rolediet::mining
