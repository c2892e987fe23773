#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "core/joc.h"
#include "core/pipeline.h"
#include "core/presence.h"
#include "core/social.h"
#include "data/synthetic.h"
#include "eval/pairs.h"
#include "graph/khop.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace fs::core {
namespace {

// A fixed 2-user world on a 1-cell spatial division for exact JOC checks.
struct FixtureWorld {
  data::Dataset dataset;
  geo::UniformGridDivision division;
  geo::TimeSlotting slots;

  FixtureWorld()
      : dataset(make_dataset()),
        division(dataset.poi_coordinates(), 1, 2),  // 2 spatial cells
        slots(0, 200, 100) {}                       // 2 time slots

  static data::Dataset make_dataset() {
    // POIs: 0 and 1 in the west cell (lng < 0.5), 2 in the east cell.
    std::vector<data::Poi> pois{
        {{0.5, 0.1}, 0}, {{0.5, 0.2}, 1}, {{0.5, 0.9}, 2}};
    // User 0: POI 0 at t=10 (slot 0), POI 0 at t=150 (slot 1),
    //         POI 2 at t=20 (slot 0).
    // User 1: POI 0 at t=30 (slot 0), POI 1 at t=40 (slot 0).
    std::vector<data::CheckIn> checkins{
        {0, 0, 10, {0.5, 0.1}},
        {0, 0, 150, {0.5, 0.1}},
        {0, 2, 20, {0.5, 0.9}},
        {1, 0, 30, {0.5, 0.1}},
        {1, 1, 40, {0.5, 0.2}},
        // Anchor check-ins pinning the observation window to [10, 200):
        {2, 2, 199, {0.5, 0.9}},
    };
    graph::Graph g(3);
    g.add_edge(0, 1);
    return data::Dataset::build(3, std::move(pois), std::move(checkins),
                                std::move(g));
  }
};

// ---------- OccupancyIndex / JOC ----------

TEST(Joc, OccupancyIndexAggregatesCounts) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const OccupancyIndex index(w.dataset, view, w.slots);
  EXPECT_EQ(index.grid_count(), 2u);
  EXPECT_EQ(index.slot_count(), 2u);
  EXPECT_EQ(index.joc_dim(), 12u);
  // User 0: 3 check-ins, one POI repeated at different slots.
  const auto& entries = index.user_entries(0);
  EXPECT_EQ(entries.size(), 3u);
}

TEST(Joc, ValuesMatchHandComputation) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const OccupancyIndex index(w.dataset, view, w.slots);
  JocOptions options;
  options.log_scale = false;
  std::vector<double> joc(index.joc_dim());
  build_joc(index, 0, 1, joc.data(), options);
  // Layout: [n_a | n_b | n_ab], each 4 cells (cellslot = grid*2 + slot).
  // West cell (grid 0): user 0 has 1 check-in in slot 0 and 1 in slot 1;
  // user 1 has 2 in slot 0. Both visited POI 0 in (west, slot 0) -> n_ab=1.
  const double* na = joc.data();
  const double* nb = joc.data() + 4;
  const double* nab = joc.data() + 8;
  EXPECT_DOUBLE_EQ(na[0], 1.0);   // west slot0
  EXPECT_DOUBLE_EQ(na[1], 1.0);   // west slot1
  EXPECT_DOUBLE_EQ(na[2], 1.0);   // east slot0 (POI 2)
  EXPECT_DOUBLE_EQ(na[3], 0.0);
  EXPECT_DOUBLE_EQ(nb[0], 2.0);
  EXPECT_DOUBLE_EQ(nb[1], 0.0);
  EXPECT_DOUBLE_EQ(nab[0], 1.0);  // shared POI 0 in west slot0
  EXPECT_DOUBLE_EQ(nab[1], 0.0);
  EXPECT_DOUBLE_EQ(nab[2], 0.0);
}

TEST(Joc, SymmetricInAB) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const OccupancyIndex index(w.dataset, view, w.slots);
  JocOptions options;
  options.log_scale = false;
  std::vector<double> ab(index.joc_dim()), ba(index.joc_dim());
  build_joc(index, 0, 1, ab.data(), options);
  build_joc(index, 1, 0, ba.data(), options);
  // n_a and n_b channels swap; n_ab is identical.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ab[i], ba[4 + i]);
    EXPECT_DOUBLE_EQ(ab[4 + i], ba[i]);
    EXPECT_DOUBLE_EQ(ab[8 + i], ba[8 + i]);
  }
}

TEST(Joc, LogScaleIsMonotone) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const OccupancyIndex index(w.dataset, view, w.slots);
  std::vector<double> raw(index.joc_dim()), logged(index.joc_dim());
  JocOptions opt_raw;
  opt_raw.log_scale = false;
  build_joc(index, 0, 1, raw.data(), opt_raw);
  build_joc(index, 0, 1, logged.data());
  for (std::size_t i = 0; i < raw.size(); ++i)
    EXPECT_NEAR(logged[i], std::log1p(raw[i]), 1e-12);
}

TEST(Joc, MatrixBuilderMatchesSingle) {
  const FixtureWorld w;
  const geo::UniformGridDivisionView view(w.division);
  const OccupancyIndex index(w.dataset, view, w.slots);
  const std::vector<data::UserPair> pairs{{0, 1}, {0, 2}};
  const nn::Matrix m = build_joc_matrix(index, pairs);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), index.joc_dim());
  std::vector<double> single(index.joc_dim());
  build_joc(index, 0, 1, single.data());
  for (std::size_t c = 0; c < single.size(); ++c)
    EXPECT_DOUBLE_EQ(m(0, c), single[c]);
}

// ---------- encoder dims ----------

TEST(Presence, EncoderDimsHalve) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_layers = 2;
  cfg.max_hidden_width = 10000;
  const auto dims = make_encoder_dims(1000, cfg);
  EXPECT_EQ(dims, (std::vector<std::size_t>{1000, 500, 250, 64}));
}

TEST(Presence, EncoderDimsSkipNarrowLayers) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_layers = 3;
  const auto dims = make_encoder_dims(200, cfg);
  // 200/2 = 100 <= 128, so no hidden layer survives.
  EXPECT_EQ(dims, (std::vector<std::size_t>{200, 64}));
}

TEST(Presence, EncoderDimsClampWidth) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  cfg.max_hidden_width = 320;
  const auto dims = make_encoder_dims(2000, cfg);
  EXPECT_EQ(dims, (std::vector<std::size_t>{2000, 320, 64}));
}

TEST(Presence, EncoderDimsRejectTinyInput) {
  PresenceModelConfig cfg;
  cfg.feature_dim = 64;
  EXPECT_THROW(make_encoder_dims(64, cfg), std::invalid_argument);
}

// ---------- PresenceModel ----------

TEST(Presence, TrainsAndPredictsOnSyntheticJocs) {
  // JOC-like inputs: positives have mass in the shared channel.
  util::Rng rng(7);
  const std::size_t dim = 48;
  nn::Matrix x(120, dim);
  std::vector<int> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c) {
      double v = rng.uniform() < 0.1 ? rng.uniform(0.0, 2.0) : 0.0;
      if (y[i] && c >= 2 * dim / 3) v += rng.uniform(0.5, 1.5);
      x(i, c) = std::log1p(v);
    }
  }
  PresenceModelConfig cfg;
  cfg.feature_dim = 8;
  cfg.epochs = 30;
  PresenceModel model(cfg);
  model.train(x, y);
  EXPECT_TRUE(model.trained());
  const nn::Matrix code = model.encode(x);
  EXPECT_EQ(code.cols(), 8u);
  const auto pred = model.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) correct += pred[i] == y[i];
  EXPECT_GT(correct, 100u);
}

TEST(Presence, PredictBeforeTrainThrows) {
  PresenceModel model(PresenceModelConfig{});
  EXPECT_THROW(model.encode(nn::Matrix(1, 10)), std::logic_error);
  EXPECT_THROW(model.predict_proba_encoded(nn::Matrix(1, 10)),
               std::logic_error);
}

// ---------- social proximity features ----------

/// Feature rows keyed by canonical edge; edges without an entry have none.
using EdgeRows = std::map<graph::Edge, std::vector<double>>;

EdgeFeatureTable table_of(const graph::Graph& g, std::size_t dim,
                          const EdgeRows& rows) {
  return make_edge_feature_table(
      g, dim, [&](graph::NodeId v, graph::NodeId w) -> const double* {
        const auto it = rows.find(graph::Edge(v, w));
        return it == rows.end() ? nullptr : it->second.data();
      });
}

std::vector<double> social_feature(const graph::Graph& g, data::UserId a,
                                   data::UserId b,
                                   const SocialFeatureConfig& cfg,
                                   const EdgeRows& rows) {
  const EdgeFeatureTable table = table_of(g, cfg.feature_dim, rows);
  SocialFeatureBuilder builder(g, table, cfg);
  std::vector<double> s(static_cast<std::size_t>(cfg.k - 1) *
                        cfg.feature_dim);
  builder.compute(a, b, s.data());
  return s;
}

/// Every edge of `g` gets the same row.
EdgeRows constant_rows(const graph::Graph& g, std::vector<double> row) {
  EdgeRows rows;
  for (const graph::Edge& e : g.edges()) rows[e] = row;
  return rows;
}

/// The path-list definition of s_(a,b): sum each materialized path's edge
/// rows from graph::extract_khop_subgraph, counting the edge visits that
/// find a row (the cache probes a per-edge lookup would book as hits).
struct PathListFeature {
  std::vector<double> s;
  std::uint64_t visits = 0;
};

PathListFeature path_list_oracle(const graph::Graph& g, data::UserId a,
                                 data::UserId b,
                                 const SocialFeatureConfig& cfg,
                                 const EdgeRows& rows) {
  graph::KHopOptions khop = cfg.khop;
  khop.k = cfg.k;
  const graph::KHopSubgraph sub = graph::extract_khop_subgraph(g, a, b, khop);
  PathListFeature out;
  out.s.assign(static_cast<std::size_t>(cfg.k - 1) * cfg.feature_dim, 0.0);
  for (std::size_t bucket = 0; bucket < sub.paths_by_length.size();
       ++bucket) {
    double* slot = out.s.data() + bucket * cfg.feature_dim;
    for (const graph::Path& path : sub.paths_by_length[bucket])
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto it = rows.find(graph::Edge(path[i], path[i + 1]));
        if (it == rows.end()) continue;
        for (std::size_t c = 0; c < cfg.feature_dim; ++c)
          slot[c] += it->second[c];
        ++out.visits;
      }
  }
  return out;
}

/// Random graph on `nodes` vertices with edge probability `density`; each
/// edge gets a random row unless it lands in the `featureless` share.
struct RandomCase {
  graph::Graph g;
  EdgeRows rows;
};

RandomCase random_case(util::Rng& rng, std::size_t nodes, double density,
                       double featureless, std::size_t dim) {
  RandomCase c{graph::Graph(nodes), {}};
  for (graph::NodeId v = 0; v < nodes; ++v)
    for (graph::NodeId w = v + 1; w < nodes; ++w)
      if (rng.uniform() < density) c.g.add_edge(v, w);
  for (const graph::Edge& e : c.g.edges()) {
    if (rng.uniform() < featureless) continue;
    std::vector<double>& row = c.rows[e];
    for (std::size_t i = 0; i < dim; ++i) row.push_back(rng.normal(0.0, 1.0));
  }
  return c;
}

/// Checks every ordered pair of `c` against the oracle, bit for bit, and
/// returns how many pairs had a path-capped length.
std::size_t expect_matches_oracle(const RandomCase& c,
                                  const SocialFeatureConfig& cfg) {
  const EdgeFeatureTable table = table_of(c.g, cfg.feature_dim, c.rows);
  SocialFeatureBuilder builder(c.g, table, cfg);
  std::vector<double> s(static_cast<std::size_t>(cfg.k - 1) *
                        cfg.feature_dim);
  std::size_t capped = 0;
  for (graph::NodeId a = 0; a < c.g.node_count(); ++a)
    for (graph::NodeId b = 0; b < c.g.node_count(); ++b) {
      if (a == b) continue;
      const std::uint64_t visits = builder.compute(a, b, s.data());
      const PathListFeature want = path_list_oracle(c.g, a, b, cfg, c.rows);
      EXPECT_EQ(visits, want.visits) << "pair " << a << "," << b;
      EXPECT_EQ(std::memcmp(s.data(), want.s.data(), s.size() * sizeof(double)),
                0)
          << "pair " << a << "," << b;
      graph::KHopOptions khop = cfg.khop;
      khop.k = cfg.k;
      for (std::size_t n : graph::khop_path_counts(c.g, a, b, khop))
        if (n == cfg.khop.max_paths_per_length) {
          ++capped;
          break;
        }
    }
  return capped;
}

TEST(Social, SumsEdgeFeaturesByPathLength) {
  // Graph: 0-2-1 (one 2-path) and 0-3-4-1 (one 3-path).
  graph::Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 2;
  // Every edge has feature [1, 10].
  const auto s = social_feature(g, 0, 1, cfg, constant_rows(g, {1.0, 10.0}));
  ASSERT_EQ(s.size(), 4u);  // (k-1) * d
  // Length-2 slot: one path with 2 edges -> [2, 20].
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 20.0);
  // Length-3 slot: one path with 3 edges -> [3, 30].
  EXPECT_DOUBLE_EQ(s[2], 3.0);
  EXPECT_DOUBLE_EQ(s[3], 30.0);
}

TEST(Social, MissingEdgeFeaturesContributeNothing) {
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 1;
  // Only edge (0,2) has a row; the path still counts, so its last edge
  // (2,1) being featureless must not hide the first one.
  const EdgeRows only02 = {{graph::Edge(0, 2), {5.0}}};
  const EdgeFeatureTable table = table_of(g, 1, only02);
  SocialFeatureBuilder builder(g, table, cfg);
  std::vector<double> s(2);
  EXPECT_EQ(builder.compute(0, 1, s.data()), 1u);
  EXPECT_DOUBLE_EQ(s[0], 5.0);  // only edge (0,2) contributes
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(Social, WrongFeatureWidthThrows) {
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 2;
  const EdgeFeatureTable table = table_of(g, 1, constant_rows(g, {1.0}));
  EXPECT_THROW(SocialFeatureBuilder(g, table, cfg), std::logic_error);
  // A table built for another graph is rejected the same way.
  graph::Graph other(4);
  const EdgeFeatureTable foreign = table_of(other, 2, {});
  EXPECT_THROW(SocialFeatureBuilder(g, foreign, cfg), std::logic_error);
}

TEST(Social, EmptySubgraphGivesZeroVector) {
  graph::Graph g(4);  // no path between 0 and 1
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 3;
  const auto s = social_feature(g, 0, 1, cfg, {});
  ASSERT_EQ(s.size(), 6u);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Social, TableMatchesPathListOracleOnRandomGraphs) {
  util::Rng rng(1606);
  for (int k : {2, 3, 4})
    for (double density : {0.15, 0.4})
      for (double featureless : {0.0, 0.3}) {
        SocialFeatureConfig cfg;
        cfg.k = k;
        cfg.feature_dim = 5;
        expect_matches_oracle(random_case(rng, 14, density, featureless, 5),
                              cfg);
      }
}

TEST(Social, PathCapMatchesOracle) {
  util::Rng rng(29);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 3;
  cfg.khop.max_paths_per_length = 3;
  const RandomCase c = random_case(rng, 16, 0.6, 0.2, 3);
  EXPECT_GT(expect_matches_oracle(c, cfg), 0u) << "the cap never triggered";
}

TEST(Social, HubOnLengthTwoPathLeavesLongerPaths) {
  // Hub 2 sits on the 2-path 0-2-1 and on the 3-path 0-2-3-1; Theorem 1's
  // exclusion drops the latter, so only 0-4-5-1 is a 3-path.
  graph::Graph g(6);
  for (auto [v, w] : {std::pair{0, 2}, {2, 1}, {2, 3}, {3, 1}, {0, 4},
                      {4, 5}, {5, 1}})
    g.add_edge(static_cast<graph::NodeId>(v), static_cast<graph::NodeId>(w));
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 1;
  EdgeRows rows;
  for (const graph::Edge& e : g.edges())
    rows[e] = {static_cast<double>(1u << (e.a + e.b))};
  const RandomCase c{g, rows};
  expect_matches_oracle(c, cfg);
  const auto s = social_feature(g, 0, 1, cfg, rows);
  EXPECT_DOUBLE_EQ(s[0], 4.0 + 8.0);          // (0,2) + (2,1)
  EXPECT_DOUBLE_EQ(s[1], 16.0 + 512.0 + 64.0);  // (0,4) + (4,5) + (5,1)
}

TEST(Social, HeuristicFeatureHasSameWidth) {
  graph::Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  SocialFeatureConfig cfg;
  cfg.k = 3;
  cfg.feature_dim = 16;
  const auto s = heuristic_social_feature(g, 0, 1, cfg);
  EXPECT_EQ(s.size(), 32u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);  // common neighbors
}

// ---------- pipeline ----------

data::SyntheticWorldConfig pipeline_world_config() {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 110;
  cfg.poi_count = 280;
  cfg.city_count = 3;
  cfg.weeks = 6;
  cfg.seed = 31;
  return cfg;
}

FriendSeekerConfig fast_seeker_config() {
  FriendSeekerConfig cfg;
  cfg.sigma = 60;
  cfg.presence.feature_dim = 16;
  cfg.presence.epochs = 6;
  cfg.presence.max_autoencoder_rows = 200;
  cfg.max_iterations = 3;
  return cfg;
}

struct PipelineFixture {
  data::SyntheticWorld world = data::generate_world(pipeline_world_config());
  eval::LabeledPairs pairs =
      eval::sample_candidate_pairs(world.dataset, eval::PairSamplingConfig{});
  eval::PairSplit split = eval::split_pairs(pairs, 0.7, 3);
};

TEST(Pipeline, EndToEndRunsAndBeatsChance) {
  PipelineFixture fx;
  FriendSeeker seeker(fast_seeker_config());
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  ASSERT_EQ(result.test_predictions.size(), fx.split.test_pairs.size());
  ASSERT_EQ(result.test_scores.size(), fx.split.test_pairs.size());
  EXPECT_GE(result.iterations.size(), 2u);  // phase-1 record + >=1 iteration
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.5);  // far above the 0 of random-on-balanced... and
                           // comfortably above all-positive's implied bound
}

TEST(Pipeline, IterationRecordsAreConsistent) {
  PipelineFixture fx;
  FriendSeeker seeker(fast_seeker_config());
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& rec = result.iterations[i];
    EXPECT_EQ(rec.iteration, static_cast<int>(i));
    EXPECT_EQ(rec.test_predictions.size(), fx.split.test_pairs.size());
    EXPECT_GE(rec.edge_change_ratio, 0.0);
  }
  // Final predictions equal the last iteration's record.
  EXPECT_EQ(result.test_predictions,
            result.iterations.back().test_predictions);
  // The final graph's edge count matches the last record.
  EXPECT_EQ(result.final_graph.edge_count(),
            result.iterations.back().graph_edges);
}

TEST(Pipeline, PhaseOneOnlyAblation) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.iterate = false;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  EXPECT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations_run, 0);
}

TEST(Pipeline, HeuristicSocialFeatureAblationRuns) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.use_social_feature = false;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3);
}

TEST(Pipeline, UniformGridAblationRuns) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.uniform_grid = true;
  cfg.uniform_rows = 4;
  cfg.uniform_cols = 4;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  PipelineFixture fx;
  FriendSeeker a(fast_seeker_config());
  FriendSeeker b(fast_seeker_config());
  const auto ra = a.run(fx.world.dataset, fx.split.train_pairs,
                        fx.split.train_labels, fx.split.test_pairs);
  const auto rb = b.run(fx.world.dataset, fx.split.train_pairs,
                        fx.split.train_labels, fx.split.test_pairs);
  EXPECT_EQ(ra.test_predictions, rb.test_predictions);
  EXPECT_EQ(ra.iterations_run, rb.iterations_run);
}

TEST(Pipeline, ValidatesArguments) {
  PipelineFixture fx;
  FriendSeekerConfig bad = fast_seeker_config();
  bad.k = 1;
  EXPECT_THROW(FriendSeeker{bad}, std::invalid_argument);
  bad = fast_seeker_config();
  bad.tau_days = 0.0;
  EXPECT_THROW(FriendSeeker{bad}, std::invalid_argument);
  // A negative slot window would make the blocking predicate asymmetric.
  bad = fast_seeker_config();
  bad.blocking.slot_tolerance = -5;
  EXPECT_THROW(FriendSeeker{bad}, std::invalid_argument);
  bad.blocking.slot_tolerance = 0;
  EXPECT_NO_THROW(FriendSeeker{bad});

  FriendSeeker seeker(fast_seeker_config());
  EXPECT_THROW(seeker.run(fx.world.dataset, {}, {}, fx.split.test_pairs),
               std::invalid_argument);
  EXPECT_THROW(
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 std::vector<int>(3, 0), fx.split.test_pairs),
      std::invalid_argument);
}

TEST(Pipeline, LogisticPhase2ClassifierWorks) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.phase2_classifier = FriendSeekerConfig::Phase2Classifier::kLogistic;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.4);  // classifier-agnostic: still far above chance
}

class PipelineKSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineKSweep, RunsForAllK) {
  PipelineFixture fx;
  FriendSeekerConfig cfg = fast_seeker_config();
  cfg.k = GetParam();
  cfg.max_iterations = 2;
  FriendSeeker seeker(cfg);
  const FriendSeekerResult result =
      seeker.run(fx.world.dataset, fx.split.train_pairs,
                 fx.split.train_labels, fx.split.test_pairs);
  const ml::Prf prf = ml::prf(fx.split.test_labels, result.test_predictions);
  EXPECT_GT(prf.f1, 0.3) << "k=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(KValues, PipelineKSweep, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace fs::core
