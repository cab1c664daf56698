#include "cluster/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_set>

namespace rolediet::cluster {

namespace {

/// Orders a max-heap of Neighbors by distance (furthest on top).
struct FurthestFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.dist < b.dist;
  }
};

/// Orders a min-heap of Neighbors by distance (nearest on top).
struct NearestFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.dist > b.dist;
  }
};

}  // namespace

HnswIndex::HnswIndex(linalg::RowStore points, HnswParams params)
    : points_(points),
      params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(std::max<std::size_t>(2, params.m)))),
      rng_(params.seed),
      slot_of_id_(points.rows(), -1) {
  if (params_.m < 2) throw std::invalid_argument("HnswParams::m must be >= 2");
  nodes_.reserve(points.rows());
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : points_(other.points_),
      params_(other.params_),
      level_mult_(other.level_mult_),
      rng_(other.rng_),
      nodes_(std::move(other.nodes_)),
      slot_of_id_(std::move(other.slot_of_id_)),
      entry_point_(other.entry_point_),
      max_level_(other.max_level_),
      distance_evals_(other.distance_evals_.load(std::memory_order_relaxed)) {}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
  if (this == &other) return *this;
  points_ = other.points_;
  params_ = other.params_;
  level_mult_ = other.level_mult_;
  rng_ = other.rng_;
  nodes_ = std::move(other.nodes_);
  slot_of_id_ = std::move(other.slot_of_id_);
  entry_point_ = other.entry_point_;
  max_level_ = other.max_level_;
  distance_evals_.store(other.distance_evals_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return *this;
}

int HnswIndex::draw_level() noexcept {
  // Exponential distribution truncated to a sane ceiling; matches the
  // -ln(U) * mult draw from the paper.
  const double u = std::max(rng_.uniform01(), 1e-12);
  const int level = static_cast<int>(-std::log(u) * level_mult_);
  return std::min(level, 48);
}

void HnswIndex::dist_to_gather(const QueryRef& q, std::span<const std::uint32_t> ids,
                               std::size_t* out) const noexcept {
  distance_evals_.fetch_add(ids.size(), std::memory_order_relaxed);
  if (q.row >= 0) {
    distance_gather(params_.metric, points_, static_cast<std::size_t>(q.row), ids, out);
    return;
  }
  for (std::size_t k = 0; k < ids.size(); ++k)
    out[k] = distance_to_packed(params_.metric, points_, q.packed, ids[k]);
}

Neighbor HnswIndex::greedy_step(const QueryRef& q, Neighbor entry, int layer) const {
  bool improved = true;
  while (improved) {
    improved = false;
    const auto& links = nodes_[static_cast<std::size_t>(slot_of_id_[entry.id])]
                            .links[static_cast<std::size_t>(layer)];
    for (std::uint32_t nb_slot : links) {
      const std::size_t nb_id = nodes_[nb_slot].id;
      const std::size_t d = dist_to(q, nb_id);
      if (d < entry.dist) {
        entry = {nb_id, d};
        improved = true;
      }
    }
  }
  return entry;
}

std::vector<Neighbor> HnswIndex::search_layer(const QueryRef& q, Neighbor entry, std::size_t ef,
                                              int layer) const {
  std::unordered_set<std::size_t> visited;
  visited.insert(entry.id);

  // candidates: nearest first (to expand); results: furthest first (to prune).
  std::priority_queue<Neighbor, std::vector<Neighbor>, NearestFirst> candidates;
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurthestFirst> results;
  candidates.push(entry);
  results.push(entry);

  // Per-expansion scratch: the unvisited neighbors of the current node are
  // gathered and scored in one batched kernel pass, then folded into the
  // heaps in the same order the per-link loop used — distances don't depend
  // on heap state, so the search trajectory is unchanged.
  std::vector<std::uint32_t> batch_ids;
  std::vector<std::size_t> batch_dist;

  while (!candidates.empty()) {
    const Neighbor current = candidates.top();
    candidates.pop();
    if (current.dist > results.top().dist && results.size() >= ef) break;

    const auto& links = nodes_[static_cast<std::size_t>(slot_of_id_[current.id])]
                            .links[static_cast<std::size_t>(layer)];
    batch_ids.clear();
    for (std::uint32_t nb_slot : links) {
      const std::size_t nb_id = nodes_[nb_slot].id;
      if (!visited.insert(nb_id).second) continue;
      batch_ids.push_back(static_cast<std::uint32_t>(nb_id));
    }
    if (batch_ids.empty()) continue;
    batch_dist.resize(batch_ids.size());
    dist_to_gather(q, batch_ids, batch_dist.data());
    for (std::size_t k = 0; k < batch_ids.size(); ++k) {
      const std::size_t nb_id = batch_ids[k];
      const std::size_t d = batch_dist[k];
      if (results.size() < ef || d < results.top().dist) {
        candidates.push({nb_id, d});
        results.push({nb_id, d});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Neighbor> out(results.size());
  for (std::size_t i = results.size(); i-- > 0;) {
    out[i] = results.top();
    results.pop();
  }
  return out;  // nearest first
}

std::vector<std::uint32_t> HnswIndex::select_neighbors(std::size_t /*node_id*/,
                                                       std::vector<Neighbor> candidates,
                                                       std::size_t m) const {
  // SELECT-NEIGHBORS-HEURISTIC (Alg. 4): accept a candidate only if it is
  // closer to the query node than to every already-accepted neighbor. This
  // keeps edges pointing in diverse directions, which is what makes the
  // small-world graph navigable. Rejected candidates are kept in discard
  // order and used to top up if too few survive (keepPrunedConnections).
  std::vector<Neighbor> accepted;
  std::vector<Neighbor> discarded;
  accepted.reserve(m);

  for (const Neighbor& cand : candidates) {  // candidates arrive nearest first
    if (accepted.size() >= m) break;
    bool diverse = true;
    for (const Neighbor& kept : accepted) {
      const std::size_t d_to_kept = dist(cand.id, kept.id);
      if (d_to_kept < cand.dist) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      accepted.push_back(cand);
    } else {
      discarded.push_back(cand);
    }
  }
  for (const Neighbor& cand : discarded) {
    if (accepted.size() >= m) break;
    accepted.push_back(cand);
  }

  std::vector<std::uint32_t> out;
  out.reserve(accepted.size());
  for (const Neighbor& nb : accepted)
    out.push_back(static_cast<std::uint32_t>(slot_of_id_[nb.id]));
  return out;
}

void HnswIndex::shrink_links(std::uint32_t node, int layer) {
  auto& links = nodes_[node].links[static_cast<std::size_t>(layer)];
  const std::size_t cap = layer_capacity(layer);
  if (links.size() <= cap) return;

  std::vector<Neighbor> candidates;
  candidates.reserve(links.size());
  for (std::uint32_t nb_slot : links)
    candidates.push_back({nodes_[nb_slot].id, dist(nodes_[node].id, nodes_[nb_slot].id)});
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) { return a.dist < b.dist; });
  links = select_neighbors(nodes_[node].id, std::move(candidates), cap);

  // Re-attach anchor edges the heuristic dropped. Anchors form a spanning
  // tree of the layer-0 graph; keeping them (even slightly above the cap)
  // guarantees every node remains reachable from the entry point.
  if (layer == 0) {
    for (std::uint32_t anchor : nodes_[node].anchors) {
      if (std::find(links.begin(), links.end(), anchor) == links.end()) {
        links.push_back(anchor);
      }
    }
  }
}

void HnswIndex::add(std::size_t id) {
  if (id >= points_.rows()) throw std::out_of_range("HnswIndex::add: row id out of range");
  // The viewed matrix may have grown since construction (live engine index).
  if (slot_of_id_.size() < points_.rows()) slot_of_id_.resize(points_.rows(), -1);
  if (slot_of_id_[id] != -1) throw std::invalid_argument("HnswIndex::add: id already indexed");
  const int level = draw_level();
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.id = id;
  node.level = level;
  node.links.resize(static_cast<std::size_t>(level) + 1);
  nodes_.push_back(std::move(node));
  slot_of_id_[id] = static_cast<std::int32_t>(slot);

  if (entry_point_ < 0) {
    entry_point_ = static_cast<std::int32_t>(slot);
    max_level_ = level;
    return;
  }

  const QueryRef q{static_cast<std::ptrdiff_t>(id), {}};
  Neighbor entry{nodes_[static_cast<std::size_t>(entry_point_)].id,
                 dist_to(q, nodes_[static_cast<std::size_t>(entry_point_)].id)};

  // Phase 1: greedy descent through layers above the new node's level.
  for (int layer = max_level_; layer > level; --layer) {
    entry = greedy_step(q, entry, layer);
  }

  // Phase 2: at each layer from min(level, max_level_) down to 0, run a beam
  // search, link bidirectionally, and prune overfull neighbors.
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    std::vector<Neighbor> found = search_layer(q, entry, params_.ef_construction, layer);
    entry = found.front();

    // Per the published algorithm the new node selects M connections; the
    // larger layer-0 cap (2M) applies only as the shrink limit for nodes
    // accumulating back-links.
    std::vector<std::uint32_t> selected = select_neighbors(id, found, params_.m);
    auto& my_links = nodes_[slot].links[static_cast<std::size_t>(layer)];
    my_links = selected;

    if (layer == 0) {
      // Spanning-tree anchor: permanently pair the new node with the nearest
      // node found at layer 0 (see Node::anchors).
      const auto anchor_slot = static_cast<std::uint32_t>(slot_of_id_[entry.id]);
      nodes_[slot].anchors.push_back(anchor_slot);
      nodes_[anchor_slot].anchors.push_back(slot);
      if (std::find(my_links.begin(), my_links.end(), anchor_slot) == my_links.end())
        my_links.push_back(anchor_slot);
    }

    for (std::uint32_t nb_slot : my_links) {
      nodes_[nb_slot].links[static_cast<std::size_t>(layer)].push_back(slot);
      shrink_links(nb_slot, layer);
    }
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = static_cast<std::int32_t>(slot);
  }
}

void HnswIndex::remove(std::size_t id) {
  if (id >= slot_of_id_.size() || slot_of_id_[id] < 0)
    throw std::out_of_range("HnswIndex::remove: id not indexed");
  // Tombstone only: links and anchors stay, so the node keeps routing and
  // layer-0 reachability of everything behind it is preserved.
  nodes_[static_cast<std::size_t>(slot_of_id_[id])].deleted = true;
}

bool HnswIndex::contains(std::size_t id) const noexcept {
  return id < slot_of_id_.size() && slot_of_id_[id] >= 0 &&
         !nodes_[static_cast<std::size_t>(slot_of_id_[id])].deleted;
}

void HnswIndex::reinsert(std::size_t id) {
  if (id >= slot_of_id_.size() || slot_of_id_[id] < 0)
    throw std::out_of_range("HnswIndex::reinsert: id not indexed");
  const auto slot = static_cast<std::uint32_t>(slot_of_id_[id]);
  nodes_[slot].deleted = false;
  if (nodes_.size() == 1) return;  // nothing to link against

  // Same two-phase descent as add(), against the node's *new* row
  // contents. The node is already in the graph, so the searches can (and
  // usually do) find it — it must be dropped from the candidate lists before
  // neighbor selection, or it would be its own nearest neighbor.
  const int level = nodes_[slot].level;
  const QueryRef q{static_cast<std::ptrdiff_t>(id), {}};
  Neighbor entry{nodes_[static_cast<std::size_t>(entry_point_)].id,
                 dist_to(q, nodes_[static_cast<std::size_t>(entry_point_)].id)};
  for (int layer = max_level_; layer > level; --layer) {
    entry = greedy_step(q, entry, layer);
  }
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    std::vector<Neighbor> found = search_layer(q, entry, params_.ef_construction, layer);
    entry = found.front();  // self (dist 0) is a fine descent entry
    std::erase_if(found, [id](const Neighbor& nb) { return nb.id == id; });
    if (found.empty()) continue;

    // Append-and-dedupe instead of replacing: existing edges are still valid
    // graph edges (stale ones are harmless — consumers verify distances
    // exactly), and dropping them could orphan a neighbor whose only in-link
    // we were. shrink_links() re-prunes by the new distances.
    auto& my_links = nodes_[slot].links[static_cast<std::size_t>(layer)];
    for (std::uint32_t nb_slot : select_neighbors(id, std::move(found), params_.m)) {
      if (nb_slot == slot) continue;
      if (std::find(my_links.begin(), my_links.end(), nb_slot) == my_links.end())
        my_links.push_back(nb_slot);
      auto& their_links = nodes_[nb_slot].links[static_cast<std::size_t>(layer)];
      if (std::find(their_links.begin(), their_links.end(), slot) == their_links.end()) {
        their_links.push_back(slot);
        shrink_links(nb_slot, layer);
      }
    }
    shrink_links(slot, layer);
  }
}


void HnswIndex::add_all(const util::ExecutionContext& ctx) {
  for (std::size_t id = 0; id < points_.rows(); ++id) {
    if (ctx.expired()) break;
    add(id);
  }
}

std::optional<std::size_t> HnswIndex::entry_id() const noexcept {
  if (entry_point_ < 0) return std::nullopt;
  return nodes_[static_cast<std::size_t>(entry_point_)].id;
}

std::vector<std::size_t> HnswIndex::neighbors_of(std::size_t id, int layer) const {
  if (id >= slot_of_id_.size() || slot_of_id_[id] < 0)
    throw std::out_of_range("HnswIndex::neighbors_of: id not indexed");
  const Node& node = nodes_[static_cast<std::size_t>(slot_of_id_[id])];
  if (layer < 0 || layer > node.level) return {};
  std::vector<std::size_t> out;
  for (std::uint32_t nb_slot : node.links[static_cast<std::size_t>(layer)])
    out.push_back(nodes_[nb_slot].id);
  return out;
}

std::vector<Neighbor> HnswIndex::search_query(const QueryRef& q, std::size_t k) const {
  if (entry_point_ < 0) return {};
  Neighbor entry{nodes_[static_cast<std::size_t>(entry_point_)].id,
                 dist_to(q, nodes_[static_cast<std::size_t>(entry_point_)].id)};
  for (int layer = max_level_; layer > 0; --layer) {
    entry = greedy_step(q, entry, layer);
  }
  std::vector<Neighbor> found = search_layer(q, entry, std::max(params_.ef_search, k), 0);
  std::erase_if(found, [this](const Neighbor& nb) {
    return nodes_[static_cast<std::size_t>(slot_of_id_[nb.id])].deleted;
  });
  if (found.size() > k) found.resize(k);
  return found;
}

std::vector<Neighbor> HnswIndex::search_vector(std::span<const std::uint64_t> query,
                                               std::size_t k) const {
  return search_query(QueryRef{-1, query}, k);
}

std::vector<Neighbor> HnswIndex::search(std::size_t query_id, std::size_t k) const {
  if (query_id >= points_.rows())
    throw std::out_of_range("HnswIndex::search: row id out of range");
  return search_query(QueryRef{static_cast<std::ptrdiff_t>(query_id), {}}, k);
}

std::vector<Neighbor> HnswIndex::range_search(std::size_t query_id, std::size_t radius,
                                              std::size_t min_ef) const {
  if (query_id >= points_.rows())
    throw std::out_of_range("HnswIndex::range_search: row id out of range");
  if (entry_point_ < 0) return {};

  const QueryRef q{static_cast<std::ptrdiff_t>(query_id), {}};
  Neighbor entry{nodes_[static_cast<std::size_t>(entry_point_)].id,
                 dist_to(q, nodes_[static_cast<std::size_t>(entry_point_)].id)};
  for (int layer = max_level_; layer > 0; --layer) {
    entry = greedy_step(q, entry, layer);
  }
  std::vector<Neighbor> found =
      search_layer(q, entry, std::max(params_.ef_search, min_ef), 0);
  std::erase_if(found, [this, radius](const Neighbor& nb) {
    return nb.dist > radius ||
           nodes_[static_cast<std::size_t>(slot_of_id_[nb.id])].deleted;
  });
  return found;
}

}  // namespace rolediet::cluster
