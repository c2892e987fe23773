// Phase 2 features: social-proximity vectors from k-hop reachable subgraphs
// (Section III-C.2, Fig 6).
//
// For a pair (a, b), the k-hop reachable subgraph is decomposed by path
// length; the presence features h of the edges on same-length paths are
// summed, and the per-length sums are concatenated — yielding a
// (k-1) * d social-proximity vector s. The composite phase-2 feature is
// v = h_(a,b) ⊕ s_(a,b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "graph/khop.h"

namespace fs::core {

struct SocialFeatureConfig {
  int k = 3;
  std::size_t feature_dim = 64;  // must equal the presence feature dim
  graph::KHopOptions khop;       // khop.k is overwritten with k
};

/// The presence feature of every edge of a graph, aligned with its
/// adjacency: the edge (v, g.neighbors(v)[i]) owns slot offsets[v] + i,
/// which points at that edge's `dim`-wide feature row, or is null when the
/// edge has none (it then contributes nothing to any sum). The rows are
/// borrowed, and the table is valid only while the graph and the rows are
/// unchanged.
struct EdgeFeatureTable {
  std::size_t dim = 0;
  std::vector<std::size_t> offsets;     // node_count + 1 entries
  std::vector<const double*> features;  // one per adjacency slot
};

/// Builds the table of `g` from `feature_of(v, w)`, called once per
/// adjacency slot (twice per edge), returning the row or null. It must be
/// symmetric: both slots of an edge get the same row.
template <typename FeatureOf>
EdgeFeatureTable make_edge_feature_table(const graph::Graph& g,
                                         std::size_t dim,
                                         FeatureOf&& feature_of) {
  EdgeFeatureTable table;
  table.dim = dim;
  table.offsets.reserve(g.node_count() + 1);
  table.offsets.push_back(0);
  table.features.reserve(2 * g.edge_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    for (graph::NodeId w : g.neighbors(v))
      table.features.push_back(feature_of(v, w));
    table.offsets.push_back(table.features.size());
  }
  return table;
}

/// Computes s_(a,b) on a graph from its edge-feature table. One instance
/// holds node-count-sized markers and is reused across pairs; it is not
/// shared between threads.
///
/// The result is bit-identical to summing the features of the paths that
/// graph::extract_khop_subgraph returns: paths are enumerated in the same
/// depth-first order under the same per-length cap and the same exclusion
/// of interior vertices between lengths, just never materialized, and each
/// slot receives the same additions in the same order.
class SocialFeatureBuilder {
 public:
  /// Throws std::logic_error when the table's width differs from
  /// config.feature_dim or the table does not match the graph's shape,
  /// std::invalid_argument when config.k < 2.
  SocialFeatureBuilder(const graph::Graph& g, const EdgeFeatureTable& table,
                       const SocialFeatureConfig& config);

  /// Writes s_(a,b) to out[0 .. (k - 1) * feature_dim): slot 0 sums edge
  /// features over length-2 paths, slot 1 over length-3 paths, and so on.
  /// Returns how many edge visits found a feature row.
  std::uint64_t compute(data::UserId a, data::UserId b, double* out);

 private:
  void dfs(graph::NodeId v, int depth);
  void add_path(const double* last_edge);

  const graph::Graph& g_;
  const EdgeFeatureTable& table_;
  int k_;
  std::size_t cap_;
  std::size_t dim_;
  // Per-pair state: stamps make the node-count markers reusable without a
  // clear between pairs.
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> excluded_;  // == stamp_: excluded this pair
  std::vector<std::uint32_t> b_slot_;    // index in N(b) + 1 if stamped
  std::vector<std::uint32_t> b_stamp_;   // == stamp_: b_slot_ is current
  std::vector<char> on_stack_;
  std::vector<graph::NodeId> stack_;       // partial path from a
  std::vector<const double*> edge_rows_;   // feature of each stack edge
  std::vector<graph::NodeId> interior_;    // this length's path interiors
  // Current enumeration.
  graph::NodeId b_ = 0;
  int target_len_ = 0;
  std::size_t found_ = 0;
  double* slot_ = nullptr;
  std::uint64_t visits_ = 0;
};

/// Heuristic alternative for the ablation: [common neighbors, Jaccard,
/// Adamic-Adar, Katz, path counts per length 2..k], zero-padded/truncated
/// to the same width as the paper's feature for drop-in comparison.
std::vector<double> heuristic_social_feature(const graph::Graph& g,
                                             data::UserId a, data::UserId b,
                                             const SocialFeatureConfig& config);

/// Scratch-reusing variant of heuristic_social_feature.
void heuristic_social_feature(const graph::Graph& g, data::UserId a,
                              data::UserId b,
                              const SocialFeatureConfig& config,
                              std::vector<double>& out);

}  // namespace fs::core
