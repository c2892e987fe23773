#include "block/candidate_gen.h"

#include <algorithm>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs::block {

namespace {

/// Appends the cell tier: within-cell pairs plus pairs joined across the
/// forward slot-tolerance window of each occupied cell. Pairs are appended
/// unsorted and may repeat.
void append_cell_tier_pairs(const CellIndex& index, int slot_tolerance,
                            std::vector<data::UserPair>& out) {
  // Join each occupied cell's user list against the lists of cells in the
  // same grid at most slot_tolerance slots away. Only the forward window
  // [cell, cell + tolerance] is joined — the backward half is the same
  // pair seen from the other cell.
  const auto occupied = index.occupied_cells();
  const auto slot_count = static_cast<std::uint32_t>(index.slot_count());
  const auto tol =
      static_cast<std::uint32_t>(std::max(0, slot_tolerance));
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    const std::uint32_t cell = occupied[i];
    const std::uint32_t grid = cell / slot_count;
    const auto users = index.users_in_cell(cell);
    // Within the cell itself.
    for (std::size_t x = 0; x < users.size(); ++x)
      for (std::size_t y = x + 1; y < users.size(); ++y)
        out.push_back(data::make_pair_ordered(users[x], users[y]));
    // Against later cells inside the tolerance window and the same grid.
    for (std::size_t j = i + 1;
         j < occupied.size() && occupied[j] <= cell + tol; ++j) {
      if (occupied[j] / slot_count != grid) continue;
      for (const data::UserId u : users)
        for (const data::UserId v : index.users_in_cell(occupied[j]))
          if (u != v) out.push_back(data::make_pair_ordered(u, v));
    }
  }
}

/// Appends the hop tier: every pair at most `hop_expansion` hops apart in
/// the strong-co-occurrence graph. No-op when hop_expansion <= 0.
void append_hop_tier_pairs(const CellIndex& index, int hop_expansion,
                           std::vector<data::UserPair>& out) {
  if (hop_expansion <= 0) return;
  const graph::Graph strong = strong_cooccurrence_graph(index);
  std::vector<int> depth(strong.node_count(), -1);
  std::vector<graph::NodeId> queue;
  for (graph::NodeId a = 0; a < strong.node_count(); ++a) {
    queue.clear();
    queue.push_back(a);
    depth[a] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::NodeId v = queue[head];
      if (depth[v] >= hop_expansion) break;
      for (graph::NodeId w : strong.neighbors(v)) {
        if (depth[w] >= 0) continue;
        depth[w] = depth[v] + 1;
        queue.push_back(w);
        if (w > a) out.push_back({a, w});
      }
    }
    for (const graph::NodeId v : queue) depth[v] = -1;
  }
}

}  // namespace

bool blocking_enabled(const BlockingConfig& config,
                      std::size_t universe_pairs) {
  switch (config.mode) {
    case BlockingMode::kOff:
      return false;
    case BlockingMode::kOn:
      return true;
    case BlockingMode::kAuto:
      return universe_pairs >= config.auto_min_pairs;
  }
  return false;
}

graph::Graph strong_cooccurrence_graph(const CellIndex& index) {
  obs::Span span("block.strong_graph.build");
  // Invert per-user (cellslot, poi) visits into (cellslot, poi) -> users
  // groups; every pair inside a group shares that exact visit. Group sizes
  // are bounded by per-POI-per-slot popularity, so the join never touches
  // the O(n^2) pair space.
  std::vector<std::pair<CellIndex::PoiVisit, data::UserId>> postings;
  std::size_t total = 0;
  for (data::UserId u = 0; u < index.user_count(); ++u)
    total += index.poi_visits(u).size();
  postings.reserve(total);
  for (data::UserId u = 0; u < index.user_count(); ++u)
    for (const CellIndex::PoiVisit& v : index.poi_visits(u))
      postings.push_back({v, u});
  std::sort(postings.begin(), postings.end());

  graph::Graph g(index.user_count());
  std::size_t begin = 0;
  while (begin < postings.size()) {
    std::size_t end = begin + 1;
    while (end < postings.size() && postings[end].first == postings[begin].first)
      ++end;
    for (std::size_t i = begin; i < end; ++i)
      for (std::size_t j = i + 1; j < end; ++j)
        g.add_edge(postings[i].second, postings[j].second);
    begin = end;
  }
  span.arg("edges", static_cast<double>(g.edge_count()));
  return g;
}

bool within_hops(const graph::Graph& g, graph::NodeId a, graph::NodeId b,
                 int hops, std::vector<int>& depth_scratch,
                 std::vector<graph::NodeId>& queue_scratch) {
  if (a == b) return true;
  if (hops <= 0) return false;
  depth_scratch.resize(g.node_count(), -1);
  queue_scratch.clear();
  queue_scratch.push_back(a);
  depth_scratch[a] = 0;
  bool found = false;
  for (std::size_t head = 0; head < queue_scratch.size() && !found; ++head) {
    const graph::NodeId v = queue_scratch[head];
    const int depth = depth_scratch[v];
    if (depth >= hops) break;  // queue is depth-ordered
    for (graph::NodeId w : g.neighbors(v)) {
      if (depth_scratch[w] >= 0) continue;
      if (w == b) {
        found = true;
        break;
      }
      depth_scratch[w] = depth + 1;
      queue_scratch.push_back(w);
    }
  }
  for (const graph::NodeId v : queue_scratch) depth_scratch[v] = -1;
  depth_scratch[a] = -1;
  return found;
}

std::vector<data::UserPair> generate_candidate_pairs(
    const CellIndex& index, const BlockingConfig& config) {
  obs::Span span("block.candidates.generate");
  std::vector<data::UserPair> out;

  append_cell_tier_pairs(index, config.slot_tolerance, out);
  append_hop_tier_pairs(index, config.hop_expansion, out);

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  span.arg("candidates", static_cast<double>(out.size()));
  return out;
}

std::vector<char> filter_universe(const CellIndex& index,
                                  const graph::Graph& strong,
                                  const std::vector<data::UserPair>& universe,
                                  const BlockingConfig& config,
                                  BlockingStats* stats) {
  obs::Span span("block.universe.filter");
  std::vector<char> keep(universe.size(), 0);
  std::vector<int> depth;
  std::vector<graph::NodeId> queue;
  std::size_t cell_kept = 0;
  std::size_t hop_kept = 0;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const auto [a, b] = universe[i];
    if (index.cooccur(a, b, config.slot_tolerance)) {
      keep[i] = 1;
      ++cell_kept;
    } else if (config.hop_expansion > 0 &&
               within_hops(strong, a, b, config.hop_expansion, depth,
                           queue)) {
      keep[i] = 1;
      ++hop_kept;
    }
  }
  if (stats != nullptr) {
    stats->universe_pairs = universe.size();
    stats->cell_candidates = cell_kept;
    stats->hop_candidates = hop_kept;
    stats->scored_pairs = cell_kept + hop_kept;
    stats->pruned_pairs = universe.size() - stats->scored_pairs;
  }
  span.arg("kept", static_cast<double>(cell_kept + hop_kept));
  return keep;
}

}  // namespace fs::block
