#include "core/social.h"

#include <algorithm>
#include <stdexcept>

#include "graph/heuristics.h"

namespace fs::core {

SocialFeatureBuilder::SocialFeatureBuilder(const graph::Graph& g,
                                           const EdgeFeatureTable& table,
                                           const SocialFeatureConfig& config)
    : g_(g),
      table_(table),
      k_(config.k),
      cap_(config.khop.max_paths_per_length),
      dim_(config.feature_dim),
      excluded_(g.node_count(), 0),
      b_slot_(g.node_count(), 0),
      b_stamp_(g.node_count(), 0),
      on_stack_(g.node_count(), 0) {
  if (config.k < 2)
    throw std::invalid_argument("SocialFeatureBuilder: k must be >= 2");
  if (table.dim != config.feature_dim)
    throw std::logic_error("SocialFeatureBuilder: edge feature width mismatch");
  if (table.offsets.size() != g.node_count() + 1 ||
      table.features.size() != table.offsets.back())
    throw std::logic_error(
        "SocialFeatureBuilder: edge feature table does not match the graph");
  stack_.reserve(static_cast<std::size_t>(k_));
  edge_rows_.reserve(static_cast<std::size_t>(k_));
}

std::uint64_t SocialFeatureBuilder::compute(data::UserId a, data::UserId b,
                                            double* out) {
  if (a >= g_.node_count() || b >= g_.node_count())
    throw std::out_of_range("SocialFeatureBuilder: node id out of range");
  if (a == b) throw std::invalid_argument("SocialFeatureBuilder: a == b");
  std::fill(out, out + static_cast<std::size_t>(k_ - 1) * dim_, 0.0);
  if (++stamp_ == 0) {  // wrapped: old stamps would read as current
    std::fill(excluded_.begin(), excluded_.end(), 0);
    std::fill(b_stamp_.begin(), b_stamp_.end(), 0);
    stamp_ = 1;
  }
  // The final hop tests adjacency to b through a marker over N(b), which
  // also yields the last edge's table slot.
  const std::vector<graph::NodeId>& nb = g_.neighbors(b);
  for (std::size_t i = 0; i < nb.size(); ++i) {
    b_stamp_[nb[i]] = stamp_;
    b_slot_[nb[i]] = static_cast<std::uint32_t>(i);
  }
  b_ = b;
  visits_ = 0;
  stack_.assign(1, a);
  on_stack_[a] = 1;
  for (int length = 2; length <= k_; ++length) {
    target_len_ = length;
    found_ = 0;
    slot_ = out + static_cast<std::size_t>(length - 2) * dim_;
    interior_.clear();
    dfs(a, 0);
    // Interior vertices of this length's paths leave the working graph for
    // the longer lengths (Theorem 1's construction).
    for (graph::NodeId v : interior_) excluded_[v] = stamp_;
  }
  on_stack_[a] = 0;
  return visits_;
}

void SocialFeatureBuilder::dfs(graph::NodeId v, int depth) {
  if (found_ >= cap_) return;
  if (depth == target_len_ - 1) {
    // One hop left: a path iff v is adjacent to b (b is never on the
    // stack, because interior vertices skip it below).
    if (b_stamp_[v] != stamp_) return;
    add_path(table_.features[table_.offsets[b_] + b_slot_[v]]);
    ++found_;
    if (target_len_ < k_)
      interior_.insert(interior_.end(), stack_.begin() + 1, stack_.end());
    return;
  }
  const std::vector<graph::NodeId>& nv = g_.neighbors(v);
  const double* const* rows = table_.features.data() + table_.offsets[v];
  for (std::size_t i = 0; i < nv.size(); ++i) {
    const graph::NodeId w = nv[i];
    if (w == b_) continue;  // b may only appear as the final vertex.
    if (excluded_[w] == stamp_ || on_stack_[w]) continue;
    stack_.push_back(w);
    edge_rows_.push_back(rows[i]);
    on_stack_[w] = 1;
    dfs(w, depth + 1);
    on_stack_[w] = 0;
    edge_rows_.pop_back();
    stack_.pop_back();
    if (found_ >= cap_) return;
  }
}

void SocialFeatureBuilder::add_path(const double* last_edge) {
  // Edge by edge from a to b, each row added element-wise: the order every
  // slot entry receives its additions in is the path-list order.
  const auto add = [&](const double* h) {
    if (h == nullptr) return;
    for (std::size_t c = 0; c < dim_; ++c) slot_[c] += h[c];
    ++visits_;
  };
  for (const double* h : edge_rows_) add(h);
  add(last_edge);
}

std::vector<double> heuristic_social_feature(
    const graph::Graph& g, data::UserId a, data::UserId b,
    const SocialFeatureConfig& config) {
  std::vector<double> feature;
  heuristic_social_feature(g, a, b, config, feature);
  return feature;
}

void heuristic_social_feature(const graph::Graph& g, data::UserId a,
                              data::UserId b,
                              const SocialFeatureConfig& config,
                              std::vector<double>& out) {
  if (config.k < 2)
    throw std::invalid_argument("heuristic_social_feature: k must be >= 2");
  out.clear();
  out.reserve(static_cast<std::size_t>(config.k - 1) * config.feature_dim);
  out.push_back(graph::common_neighbors_score(g, a, b));
  out.push_back(graph::jaccard_score(g, a, b));
  out.push_back(graph::adamic_adar_score(g, a, b));
  out.push_back(graph::katz_score(g, a, b, 0.05, config.k));
  graph::KHopOptions khop = config.khop;
  khop.k = config.k;
  for (std::size_t n : graph::khop_path_counts(g, a, b, khop))
    out.push_back(static_cast<double>(n));
  // Same width as the paper's feature so classifiers are interchangeable.
  out.resize(static_cast<std::size_t>(config.k - 1) * config.feature_dim,
             0.0);
}

}  // namespace fs::core
