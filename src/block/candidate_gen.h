// Candidate-pair blocking: generation and universe filtering from the
// co-occurrence index.
//
// Two co-occurrence tiers drive the blocking decision:
//
//   * *cell* co-occurrence — the pair shares a (grid, slot +/- tolerance)
//     cell. This is the paper-side precondition for a JOC with any overlap
//     structure; a pair without it has disjoint spatial-temporal masses.
//   * *strong* co-occurrence — the pair visited the same POI in the same
//     (grid, slot), i.e. the JOC's n_ab channel is non-zero somewhere.
//     Strong edges approximate the pairs phase 1 can light up, so the
//     strong-co-occurrence graph is the substrate for hop expansion:
//     phase 2 discovers hidden friends via k-hop paths through inferred
//     edges, and a pair more than `hop_expansion` strong-hops apart cannot
//     accumulate social-proximity mass under the inferred graphs these
//     presets produce.
//
// The recall-loss contract (documented in DESIGN.md): a genuinely hidden
// friend pair that neither co-occurs nor sits within the hop-expansion
// radius is pruned from the scored universe and predicted non-friend. Such
// prunes are counted (BlockingStats::pruned_pairs, the
// block.candidates_pruned metric) so a run can report what blocking cost.
#pragma once

#include <cstdint>
#include <vector>

#include "block/cell_index.h"
#include "graph/graph.h"

namespace fs::block {

enum class BlockingMode {
  kOff,   // dense universe: every supplied pair is scored
  kOn,    // blocked universe: only candidates survive
  kAuto,  // kOn when the universe exceeds auto_min_pairs, kOff below
};

struct BlockingConfig {
  BlockingMode mode = BlockingMode::kAuto;
  /// Slots of temporal tolerance for cell co-occurrence: a shared grid with
  /// slots at most this far apart blocks the pair together. 0 = exact
  /// (grid, slot) sharing, the JOC's own granularity.
  int slot_tolerance = 1;
  /// Pairs within this many hops in the strong-co-occurrence graph stay in
  /// the scored universe even without direct cell co-occurrence, so
  /// phase 2's k-hop closure still sees 2-hop strangers (cyber friends).
  /// 0 disables expansion.
  int hop_expansion = 3;
  /// kAuto enables blocking only above this universe size; the balanced
  /// eval protocol's sampled universes stay dense, full-population
  /// universes get blocked.
  std::size_t auto_min_pairs = 20000;
};

/// Resolves kAuto against the actual universe size.
bool blocking_enabled(const BlockingConfig& config, std::size_t universe_pairs);

struct BlockingStats {
  std::size_t universe_pairs = 0;   // pairs supplied (dense universe)
  std::size_t scored_pairs = 0;     // pairs kept for scoring
  std::size_t pruned_pairs = 0;     // universe - scored
  std::size_t cell_candidates = 0;  // kept via cell co-occurrence
  std::size_t hop_candidates = 0;   // kept via hop expansion only
  std::size_t forced_pairs = 0;     // kept because the caller forced them
};

/// The strong-co-occurrence graph: one edge per user pair sharing at least
/// one (cell, slot, POI) visit. Built by grouping the inverted index by
/// (cellslot, poi) — near-linear in check-in volume, never O(n^2).
graph::Graph strong_cooccurrence_graph(const CellIndex& index);

/// Generates every candidate pair from the index alone (no dense
/// enumeration): cell-co-occurring pairs from per-cell user lists joined
/// across the slot-tolerance window, unioned with pairs at most
/// `hop_expansion` hops apart in the strong graph. Sorted, de-duplicated.
std::vector<data::UserPair> generate_candidate_pairs(
    const CellIndex& index, const BlockingConfig& config);

/// Per-pair keep mask for a fixed universe: keep[i] is 1 when universe[i]
/// cell-co-occurs or sits within hop_expansion strong-hops. `strong` must
/// be strong_cooccurrence_graph(index). Stats (when non-null) receive the
/// tier counts; forced pairs are the caller's to add afterwards.
std::vector<char> filter_universe(const CellIndex& index,
                                  const graph::Graph& strong,
                                  const std::vector<data::UserPair>& universe,
                                  const BlockingConfig& config,
                                  BlockingStats* stats = nullptr);

/// Breadth-first reachability test bounded at `hops` edges. `depth_scratch`
/// is resized to the node count and reused across calls (entries are
/// reset on exit via the touched list).
bool within_hops(const graph::Graph& g, graph::NodeId a, graph::NodeId b,
                 int hops, std::vector<int>& depth_scratch,
                 std::vector<graph::NodeId>& queue_scratch);

}  // namespace fs::block
