#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "block/cell_index.h"
#include "core/checkpoint.h"
#include "core/joc.h"
#include "geo/spatial_division.h"
#include "geo/time_slots.h"
#include "graph/metrics.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fs::core {

FriendSeeker::FriendSeeker(const FriendSeekerConfig& config)
    : config_(config) {
  if (config.k < 2)
    throw std::invalid_argument("FriendSeeker: k must be >= 2");
  if (config.blocking.slot_tolerance < 0)
    throw std::invalid_argument(
        "FriendSeeker: blocking slot_tolerance must be >= 0");
  if (config.tau_days <= 0.0)
    throw std::invalid_argument("FriendSeeker: tau must be > 0");
}

namespace {

/// Flip hysteresis: an existing edge is removed (or a missing edge added)
/// only when the phase-2 decision clears the tuned cut by this many
/// standard deviations of the decision distribution. Damps borderline
/// pairs oscillating between iterations.
constexpr double kFlipMargin = 0.3;

constexpr std::size_t kUnscored = static_cast<std::size_t>(-1);

// ---- Stage 1: spatial-temporal division. ------------------------------

/// The dataset cast into the division and time slots. Later stages read
/// check-ins only through these two indexes.
struct Division {
  OccupancyIndex occupancy;     // per-user (cell, slot, POI) counts: JOCs
  block::CellIndex cell_index;  // co-occurrence: blocking and signature
};

Division divide(const data::Dataset& dataset, const FriendSeekerConfig& config,
                runtime::ExecutionContext* ctx) {
  obs::Span span("core.pipeline.std_division");
  const std::vector<geo::LatLng> poi_coords = dataset.poi_coordinates();
  std::unique_ptr<geo::QuadtreeDivision> quadtree;
  std::unique_ptr<geo::UniformGridDivision> uniform;
  std::unique_ptr<geo::SpatialDivision> division;
  if (config.uniform_grid) {
    uniform = std::make_unique<geo::UniformGridDivision>(
        poi_coords, config.uniform_rows, config.uniform_cols);
    division = std::make_unique<geo::UniformGridDivisionView>(*uniform);
  } else {
    quadtree =
        std::make_unique<geo::QuadtreeDivision>(poi_coords, config.sigma);
    division = std::make_unique<geo::QuadtreeDivisionView>(*quadtree);
  }
  const geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<geo::Timestamp>(config.tau_days * geo::kSecondsPerDay));
  OccupancyIndex occupancy(dataset, *division, slots);
  span.end();
  util::log_debug("FriendSeeker: STD I=", division->cell_count(),
                  " J=", slots.slot_count(), " joc_dim=", occupancy.joc_dim());
  return {std::move(occupancy),
          block::CellIndex(dataset, *division, slots, ctx)};
}

// ---- Stage 2: candidate-pair universe. --------------------------------

/// All candidate pairs (train + test) with a dense universe row, and which
/// of them are scored. The social graph only ever contains candidate
/// edges, so each edge has a feature row. Per-pair vectors are indexed by
/// universe row or by scored index (a position in `scored`).
struct Universe {
  std::vector<data::UserPair> pairs;
  std::map<data::UserPair, std::size_t> row_of;
  std::vector<std::size_t> test_rows;      // universe row of each test pair
  std::vector<char> candidate;             // by universe row
  std::vector<std::size_t> scored;         // universe row of each scored index
  std::vector<std::size_t> scored_of_row;  // kUnscored when pruned
  std::vector<std::size_t> train_scored;   // scored index of each train pair
  /// Scored indices the hysteresis spread is estimated on: the candidate
  /// rows in scored order, then the non-candidate train rows in train
  /// order. These are the rows scored identically in every blocking mode
  /// (a dense run also scores non-candidates, but those are left out), so
  /// a blocked and a dense run see the same margin, which is what makes
  /// their graphs comparable edge for edge.
  std::vector<std::size_t> margin_rows;
  bool blocking_on = false;
  block::BlockingStats stats;
};

Universe build_universe(const block::CellIndex& cell_index,
                        const std::vector<data::UserPair>& train_pairs,
                        const std::vector<data::UserPair>& test_pairs,
                        const block::BlockingConfig& blocking) {
  Universe u;
  for (const auto* list : {&train_pairs, &test_pairs})
    for (const data::UserPair& p : *list) {
      const data::UserPair key = data::make_pair_ordered(p.first, p.second);
      if (u.row_of.emplace(key, u.pairs.size()).second) u.pairs.push_back(key);
    }
  const auto rows_of = [&u](const std::vector<data::UserPair>& pairs) {
    std::vector<std::size_t> rows;
    rows.reserve(pairs.size());
    for (const data::UserPair& p : pairs)
      rows.push_back(u.row_of.at(data::make_pair_ordered(p.first, p.second)));
    return rows;
  };
  const std::vector<std::size_t> train_rows = rows_of(train_pairs);
  u.test_rows = rows_of(test_pairs);

  // The candidate predicate — cell co-occurrence within slot_tolerance, or
  // at most hop_expansion hops in the strong-co-occurrence graph — is part
  // of the MODEL, not just an optimization: a non-candidate pair has no
  // mobility evidence (its n_ab channel is identically zero and it is
  // outside phase 2's reachable closure), so it is never labeled a friend,
  // in any mode. The --blocking mode then only decides whether such pairs
  // are *scored*: off runs the full dense computation and gates the final
  // label, on skips their feature rows entirely. That split is what makes
  // a blocked run reproduce the dense run's final graph bit for bit while
  // doing a fraction of the work — and what the differential tests pin.
  //
  // The documented recall-loss contract lives in the predicate itself: a
  // genuinely hidden friend pair that never co-occurs and sits outside the
  // hop radius is predicted non-friend (and, when blocking is on, counted
  // in block.candidates_pruned).
  const std::size_t n = u.pairs.size();
  u.blocking_on = block::blocking_enabled(blocking, n);
  u.candidate = block::filter_universe(
      cell_index, block::strong_cooccurrence_graph(cell_index), u.pairs,
      blocking, &u.stats);
  // Scored rows: every row when blocking is off; otherwise the candidates
  // plus every train row. Train pairs are always scored — their labels are
  // the attacker's own ground truth and both phases train on their feature
  // rows — though a non-candidate train pair is still gated to non-friend
  // like any other.
  std::vector<char> keep = u.candidate;
  if (!u.blocking_on) {
    keep.assign(n, 1);
    u.stats = block::BlockingStats{};
    u.stats.universe_pairs = n;
    u.stats.scored_pairs = n;
  }
  for (std::size_t row : train_rows) {
    if (!keep[row]) {
      keep[row] = 1;
      ++u.stats.forced_pairs;
      ++u.stats.scored_pairs;
      --u.stats.pruned_pairs;
    }
  }
  u.scored_of_row.assign(n, kUnscored);
  u.scored.reserve(u.stats.scored_pairs);
  for (std::size_t row = 0; row < n; ++row) {
    if (keep[row]) {
      u.scored_of_row[row] = u.scored.size();
      u.scored.push_back(row);
    }
  }
  u.train_scored.reserve(train_rows.size());
  for (std::size_t row : train_rows)
    u.train_scored.push_back(u.scored_of_row[row]);
  for (std::size_t si = 0; si < u.scored.size(); ++si)
    if (u.candidate[u.scored[si]]) u.margin_rows.push_back(si);
  for (std::size_t si : u.train_scored)
    if (!u.candidate[u.scored[si]]) u.margin_rows.push_back(si);
  util::log_debug("FriendSeeker: universe=", n, " scored=", u.scored.size(),
                  u.blocking_on ? " (blocking on)" : " (blocking off)");
  return u;
}

/// Everything a cached row is a function of: the binned dataset (the cell
/// index's content signature) for JOC rows, plus the presence recipe, the
/// seeds and the training set for encoded rows. One shared signature is
/// conservative — a seed change also drops the still-valid JOC rows — but
/// keeps invalidation impossible to get subtly wrong.
std::uint64_t cache_signature(const Division& division,
                              const FriendSeekerConfig& config,
                              const std::vector<data::UserPair>& train_pairs,
                              const std::vector<int>& train_labels) {
  const PresenceModelConfig& p = config.presence;
  util::Fnv1a h;
  h.u64(division.cell_index.signature()).u64(config.seed);
  h.u64(p.feature_dim).value(p.max_hidden_layers).u64(p.max_hidden_width);
  h.value(p.epochs).u64(p.batch_size).u64(p.knn_k);
  h.u64(p.max_autoencoder_rows).u64(p.max_knn_rows).u64(p.seed);
  h.f64(p.learning_rate).f64(p.alpha);
  h.u64(train_pairs.size());
  for (std::size_t i = 0; i < train_pairs.size(); ++i)
    h.value(train_pairs[i].first).value(train_pairs[i].second)
        .value(train_labels[i]);
  return h.digest();
}

/// Identity of a phase-2 trajectory: a checkpoint seeds a run only when
/// everything an iteration computes from agrees — the cache signature (the
/// binned dataset, phase 1's recipe and training set), the universe, the
/// resolved blocking, and the phase-2 model. The stopping rule
/// (max_iterations, convergence_threshold) is left out so a resumed run may
/// go further than the one that saved.
std::uint64_t run_fingerprint(std::uint64_t cache_signature,
                              const Universe& u,
                              const FriendSeekerConfig& config) {
  util::Fnv1a h;
  h.u64(cache_signature).u64(u.pairs.size());
  for (const data::UserPair& p : u.pairs) h.value(p.first).value(p.second);
  h.value(u.blocking_on).value(config.blocking.slot_tolerance);
  h.value(config.blocking.hop_expansion);
  h.value(config.k).value(config.phase2_classifier);
  const ml::SvmConfig& svm = config.svm;
  h.f64(svm.c).f64(svm.gamma).f64(svm.tolerance).value(svm.max_passes);
  h.value(svm.max_iterations).u64(svm.seed).u64(svm.max_train_rows);
  const ml::LogisticConfig& logistic = config.logistic;
  h.f64(logistic.learning_rate).f64(logistic.l2).value(logistic.epochs);
  h.u64(logistic.seed);
  h.u64(config.max_svm_train_rows).value(config.use_social_feature);
  h.f64(kFlipMargin);
  return h.digest();
}

/// Where the run checkpoints and the fingerprint its checkpoints carry; an
/// empty path turns checkpointing off.
struct CheckpointSlot {
  std::string path;
  std::uint64_t fingerprint = 0;
};

/// The working state over the universe: each row's friend label and score,
/// and the graph the labels induce.
struct Labels {
  std::vector<int> predictions;  // by universe row
  std::vector<double> scores;    // by universe row
  graph::Graph graph;
};

graph::Graph graph_from_predictions(std::size_t user_count, const Universe& u,
                                    const std::vector<int>& predictions) {
  graph::Graph g(user_count);
  for (std::size_t i = 0; i < u.pairs.size(); ++i)
    if (predictions[i]) g.add_edge(u.pairs[i].first, u.pairs[i].second);
  return g;
}

void record_iteration(FriendSeekerResult& result, const Universe& u,
                      const Labels& labels, int iteration, double change) {
  IterationRecord rec{iteration, change, labels.graph.edge_count(), {}};
  rec.test_predictions.reserve(u.test_rows.size());
  for (std::size_t row : u.test_rows)
    rec.test_predictions.push_back(labels.predictions[row]);
  result.iterations.push_back(std::move(rec));
}

void set_gauge(const std::string& name, const std::string& help,
               double value) {
  obs::metrics().gauge(name, {}, help).set(value);
}

/// The operating point is picked on the training split (every attack in
/// the evaluation does the same — the attacker maximizes train F1).
double tune_on_train(const std::vector<double>& by_scored, const Universe& u,
                     const std::vector<int>& train_labels) {
  std::vector<double> train_scores;
  train_scores.reserve(u.train_scored.size());
  for (std::size_t si : u.train_scored) train_scores.push_back(by_scored[si]);
  return ml::tune_f1_threshold(train_scores, train_labels).threshold;
}

// ---- Stage 3: phase 1, presence proximity. ----------------------------

/// JOC rows for every scored pair, served from the cache where present.
nn::Matrix fill_jocs(const OccupancyIndex& occupancy, const Universe& u,
                     block::FeatureCache& cache,
                     runtime::ExecutionContext* ctx) {
  obs::Span joc_span("core.joc.fill");
  const std::size_t count = u.scored.size();
  nn::Matrix jocs(count, occupancy.joc_dim());
  // Slot allocation is sequential (insert mutates the arena); only the row
  // fills fan out, each into a disjoint arena row, so the result is
  // byte-identical at any thread count.
  std::vector<const double*> rows(count);
  std::vector<double*> fill;
  std::vector<std::size_t> fill_si;
  for (std::size_t si = 0; si < count; ++si) {
    const data::UserPair& pair = u.pairs[u.scored[si]];
    if (const double* hit = cache.find_joc(pair)) {
      rows[si] = hit;
    } else {
      double* slot = cache.insert_joc(pair);
      rows[si] = slot;
      fill.push_back(slot);
      fill_si.push_back(si);
    }
  }
  JocOptions joc_options;
  joc_options.context = ctx;
  par::ParallelOptions jopts;
  jopts.context = ctx;
  jopts.what = "core.joc.fill";
  jopts.grain = par::grain_for(occupancy.joc_dim() * 4);
  par::parallel_for(fill.size(), jopts, [&](std::size_t i) {
    const data::UserPair& pair = u.pairs[u.scored[fill_si[i]]];
    build_joc(occupancy, pair.first, pair.second, fill[i], joc_options);
  });
  par::parallel_for(count, jopts, [&](std::size_t si) {
    std::copy(rows[si], rows[si] + occupancy.joc_dim(), jocs.row(si));
  });
  obs::metrics()
      .counter("core.joc.rows_total", {}, "JOC feature rows built")
      .add(fill.size());
  joc_span.arg("rows", static_cast<double>(count));
  joc_span.arg("built", static_cast<double>(fill.size()));
  return jocs;
}

/// The checkpoint to resume from, when resuming was asked for and the file
/// holds a usable one for this run. Every rejection is a diagnostic and
/// the run restarts cleanly from phase 1.
std::optional<PipelineCheckpoint> load_resumable(
    const CheckpointSlot& checkpoint, std::size_t universe_size,
    util::Diagnostics& diagnostics) {
  if (!std::filesystem::exists(checkpoint.path)) {
    diagnostics.info("pipeline",
                     "no checkpoint at " + checkpoint.path + "; starting fresh");
    return std::nullopt;
  }
  std::string why;
  try {
    PipelineCheckpoint cp = load_pipeline_checkpoint(checkpoint.path);
    if (cp.fingerprint != checkpoint.fingerprint)
      why = "checkpoint fingerprint mismatch (different dataset or config); "
            "restarting from phase 1";
    else if (cp.predictions.size() != universe_size ||
             cp.scores.size() != universe_size || !cp.presence.has_value() ||
             !cp.presence->trained())
      why = "checkpoint shape mismatch; restarting from phase 1";
    else
      return cp;
  } catch (const Error& e) {
    why = std::string("cannot resume, restarting cleanly: ") + e.what();
  }
  diagnostics.report(util::Severity::kWarning, ErrorCode::kCorruptCheckpoint,
                     "pipeline", why);
  return std::nullopt;
}

/// Phase 1's product: the presence model and the labels phase 2 starts
/// from — the seed cut of a fresh run, or the checkpointed iteration of a
/// resumed one (result.resumed_from_iteration).
struct Phase1 {
  PresenceModel presence;
  Labels labels;
};

Phase1 phase1(const OccupancyIndex& occupancy, const Universe& u,
              const std::vector<int>& train_labels,
              const FriendSeekerConfig& config, block::FeatureCache& cache,
              const CheckpointSlot& checkpoint, std::size_t user_count,
              FriendSeekerResult& result) {
  runtime::ExecutionContext* const ctx = config.context;
  util::Diagnostics& diagnostics = result.diagnostics;
  const std::size_t count = u.scored.size();
  // The JOC matrix is the run's dominant allocation; charge its estimate
  // against the memory budget up front so an over-budget configuration is
  // rejected before the build instead of OOMing halfway through. Nothing
  // after phase 1 reads it, so matrix and charge end with this stage.
  const runtime::MemoryCharge joc_charge(
      ctx, count * occupancy.joc_dim() * sizeof(double), "core.joc.matrix");
  const nn::Matrix jocs = fill_jocs(occupancy, u, cache, ctx);

  std::optional<PipelineCheckpoint> resumed;
  if (config.resume && !checkpoint.path.empty())
    resumed = load_resumable(checkpoint, u.pairs.size(), diagnostics);

  PresenceModelConfig presence_cfg = config.presence;
  presence_cfg.seed ^= config.seed;
  presence_cfg.diagnostics = &diagnostics;
  presence_cfg.context = ctx;
  PresenceModel presence = resumed ? std::move(*resumed->presence)
                                   : PresenceModel(presence_cfg);
  if (resumed.has_value()) {
    result.resumed_from_iteration = resumed->iteration;
    diagnostics.info("pipeline", "resumed from checkpoint at iteration " +
                                     std::to_string(resumed->iteration));
  } else {
    obs::Span phase1_timer("core.pipeline.phase1");
    // An expired deadline truncates autoencoder training at the next epoch
    // boundary (a partially trained model is still usable), recorded here.
    presence.train(jocs.gather_rows(u.train_scored), train_labels);
    if (ctx != nullptr && ctx->deadline_expired())
      result.degradation.add("phase1.autoencoder", "deadline",
                             "training truncated by wall-clock budget");
    phase1_timer.end();
    util::log_debug("FriendSeeker: phase-1 training ",
                    phase1_timer.seconds(), "s");
  }
  const std::size_t d = presence.feature_dim();

  // Presence features for the scored universe (cache-backed). Rows already
  // in the cache (phase-2 re-entries, shared caches across runs) skip the
  // encoder entirely; only the misses run a forward pass.
  const runtime::MemoryCharge embedding_charge(
      ctx, count * d * sizeof(double), "core.embeddings");
  obs::Span encode_span("core.pipeline.phase1.encode");
  nn::Matrix embeddings(count, d);
  std::vector<std::size_t> encode_si;
  for (std::size_t si = 0; si < count; ++si) {
    if (const double* hit = cache.find_presence(u.pairs[u.scored[si]]))
      std::copy(hit, hit + d, embeddings.row(si));
    else
      encode_si.push_back(si);
  }
  if (!encode_si.empty()) {
    const nn::Matrix fresh = presence.encode(jocs.gather_rows(encode_si));
    for (std::size_t i = 0; i < encode_si.size(); ++i) {
      const std::size_t si = encode_si[i];
      double* slot = cache.insert_presence(u.pairs[u.scored[si]]);
      std::copy(fresh.row(i), fresh.row(i) + d, slot);
      std::copy(fresh.row(i), fresh.row(i) + d, embeddings.row(si));
    }
  }
  encode_span.arg("rows", static_cast<double>(count));
  encode_span.arg("encoded", static_cast<double>(encode_si.size()));
  const std::vector<double> proba = presence.predict_proba_encoded(embeddings);
  encode_span.end();
  for (double p : proba)
    if (!std::isfinite(p))
      throw NumericError(
          "FriendSeeker: phase-1 probabilities contain non-finite values");

  Labels labels;
  if (resumed.has_value()) {
    labels.predictions = std::move(resumed->predictions);
    labels.scores = std::move(resumed->scores);
  } else {
    // Phase 1 seeds the graph; a too-permissive cut floods G(0) with false
    // edges that phase 2 then has to prune back (overshoot). The seed cut
    // is therefore never below the KNN's natural majority threshold.
    const double cut = std::max(tune_on_train(proba, u, train_labels), 0.5);
    labels.predictions.assign(u.pairs.size(), 0);
    labels.scores.assign(u.pairs.size(), 0.0);
    for (std::size_t si = 0; si < count; ++si) {
      const std::size_t row = u.scored[si];
      labels.predictions[row] = u.candidate[row] && proba[si] >= cut;
      labels.scores[row] = proba[si];
    }
  }
  labels.graph = graph_from_predictions(user_count, u, labels.predictions);
  // Iteration 0 is the phase-1 graph; a resumed run's baseline is the
  // checkpointed iteration instead (change 0: nothing moved since the save).
  record_iteration(result, u, labels, result.resumed_from_iteration,
                   resumed ? 0.0 : 1.0);
  util::log_debug("FriendSeeker: baseline graph edges=",
                  labels.graph.edge_count());
  return {std::move(presence), std::move(labels)};
}

// ---- Stage 4: phase 2, iterative social proximity. --------------------

/// Fits C' on the labeled rows of `composite` (subsampled under the kernel
/// cap) and returns its decision for every scored row. Throws NumericError
/// on a non-finite decision, before any working state has changed.
std::vector<double> classify(const nn::Matrix& composite, const Universe& u,
                             const std::vector<int>& train_labels,
                             const FriendSeekerConfig& config, int iteration) {
  // The RNG is derived from (seed, iteration) alone — never from how many
  // iterations this process has executed — so a run resumed from a
  // checkpoint subsamples identically to an uninterrupted one
  // (resume-equivalence).
  util::Rng svm_rng(config.seed ^ 0x5117ULL ^
                    (static_cast<std::uint64_t>(iteration) *
                     0x9e3779b97f4a7c15ULL));
  std::vector<std::size_t> svm_rows = u.train_scored;
  std::vector<int> svm_labels = train_labels;
  if (svm_rows.size() > config.max_svm_train_rows) {
    std::vector<std::size_t> order(svm_rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    svm_rng.shuffle(order);
    order.resize(config.max_svm_train_rows);
    for (std::size_t j = 0; j < order.size(); ++j) {
      svm_rows[j] = u.train_scored[order[j]];
      svm_labels[j] = train_labels[order[j]];
    }
    svm_rows.resize(order.size());
    svm_labels.resize(order.size());
  }

  obs::Span scale_span("core.phase2.scale");
  ml::StandardScaler scaler;
  const nn::Matrix svm_train =
      scaler.fit_transform(composite.gather_rows(svm_rows));
  const nn::Matrix all_scaled = scaler.transform(composite);
  scale_span.end();
  std::vector<double> decision;
  if (config.phase2_classifier ==
      FriendSeekerConfig::Phase2Classifier::kLogistic) {
    ml::LogisticClassifier clf(config.logistic);
    clf.fit(svm_train, svm_labels);
    decision = clf.decision(all_scaled);
  } else {
    ml::SvmConfig svm_cfg = config.svm;
    svm_cfg.seed ^= static_cast<std::uint64_t>(iteration);
    svm_cfg.context = config.context;
    ml::SvmClassifier svm(svm_cfg);
    svm.fit(svm_train, svm_labels);
    decision = svm.decision(all_scaled);
  }
  for (double v : decision)
    if (!std::isfinite(v))
      throw NumericError("FriendSeeker: non-finite decision scores at "
                         "iteration " +
                         std::to_string(iteration));
  return decision;
}

/// Relabels every scored row from this iteration's decision.
void relabel(const std::vector<double>& decision, double cut,
             const Universe& u, Labels& labels) {
  // Hysteresis: borderline pairs keep their previous state, so the graph
  // settles instead of oscillating around the cut.
  double mean = 0.0, sq = 0.0;
  for (std::size_t si : u.margin_rows) mean += decision[si];
  mean /= static_cast<double>(u.margin_rows.size());
  for (std::size_t si : u.margin_rows) {
    const double delta = decision[si] - mean;
    sq += delta * delta;
  }
  const double margin =
      kFlipMargin * std::sqrt(sq / static_cast<double>(u.margin_rows.size()));
  for (std::size_t si = 0; si < u.scored.size(); ++si) {
    const std::size_t row = u.scored[si];
    if (!u.candidate[row]) {
      // Non-candidate rows are scored (dense mode) but never labeled
      // friend — the candidate gate is part of the model.
      labels.predictions[row] = 0;
    } else if (decision[si] >= cut + margin) {
      labels.predictions[row] = 1;
    } else if (decision[si] < cut - margin) {
      labels.predictions[row] = 0;
    }
    // else: inside the hysteresis band — keep the previous state.
    labels.scores[row] = decision[si];
  }
}

/// Refines `seed.labels` in place until the graph converges, the iteration
/// cap is hit, or governance stops the loop; every recoverable failure
/// keeps the last-good graph and lands in the result's degradation report.
void phase2(Phase1& seed, const Universe& u,
            const std::vector<int>& train_labels,
            const FriendSeekerConfig& config, block::FeatureCache& cache,
            const CheckpointSlot& checkpoint, FriendSeekerResult& result) {
  runtime::ExecutionContext* const ctx = config.context;
  util::Diagnostics& diagnostics = result.diagnostics;
  Labels& labels = seed.labels;
  const std::size_t count = u.scored.size();
  const std::size_t d = seed.presence.feature_dim();
  SocialFeatureConfig social_cfg;
  social_cfg.k = config.k;
  social_cfg.feature_dim = d;
  const std::size_t social_width = static_cast<std::size_t>(config.k - 1) * d;

  // The presence row of an edge of the current graph, or null for a pair
  // outside the universe. Pruned rows never carry an edge, so the scored
  // test only rejects pairs that were never cached. The lookup is uncounted:
  // the composite books one cache hit per edge visit that finds a row,
  // which is the count a probe per visit would give (every scored pair's
  // row is cached by phase 1).
  const auto edge_feature = [&](data::UserId a, data::UserId b) {
    const auto it = u.row_of.find(data::make_pair_ordered(a, b));
    if (it == u.row_of.end() || u.scored_of_row[it->second] == kUnscored)
      return static_cast<const double*>(nullptr);
    return cache.peek_presence(it->first);
  };

  const auto save = [&](int iteration) {
    if (checkpoint.path.empty()) return;
    try {
      // Copies: the run keeps using its own state.
      save_pipeline_checkpoint(
          checkpoint.path, {checkpoint.fingerprint, iteration,
                            labels.predictions, labels.scores, seed.presence});
    } catch (const Error& e) {
      // A failed save never kills the run; it only costs resumability.
      diagnostics.report(util::Severity::kWarning, ErrorCode::kIo,
                         "pipeline",
                         std::string("checkpoint save failed: ") + e.what());
    }
  };

  // The composite matrix is phase 2's dominant allocation; it and its
  // budget charge are hoisted out of the refinement loop and reused every
  // iteration. A failed charge degrades exactly like an in-iteration
  // budget failure: keep the phase-1 graph.
  std::optional<runtime::MemoryCharge> composite_charge;
  nn::Matrix composite;
  bool ready = true;
  try {
    composite_charge.emplace(ctx, count * (d + social_width) * sizeof(double),
                             "core.phase2.composite");
    composite = nn::Matrix(count, d + social_width);
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kBudget) throw;
    ready = false;
    diagnostics.report(util::Severity::kError, e.code(), "pipeline",
                       std::string("phase 2 abandoned, keeping phase-1 "
                                   "graph: ") +
                           e.what());
    result.degradation.add("phase2.refine", "memory", e.what(),
                           result.resumed_from_iteration,
                           config.max_iterations);
  }

  // Cache traffic of phase-2 iterations >= 2: the steady state the cache
  // exists for, measured for the result and the perf bench.
  std::optional<block::FeatureCache::Stats> after_first_iteration;
  // Per-phase budget for the whole refinement loop; the loop-top probes
  // below truncate at iteration boundaries, where the last-good graph and
  // checkpoint are both current.
  runtime::PhaseScope phase2_scope(ctx, config.phase2_budget_sec);
  for (int iteration = result.resumed_from_iteration + 1;
       ready && iteration <= config.max_iterations; ++iteration) {
    if (ctx != nullptr && ctx->cancelled()) {
      result.degradation.add("phase2.refine", "cancelled",
                             "stopped at iteration boundary; the last "
                             "checkpoint is current",
                             iteration - 1, config.max_iterations);
      break;
    }
    if (ctx != nullptr && ctx->deadline_expired()) {
      result.degradation.add("phase2.refine", "deadline",
                             "wall-clock budget exhausted; keeping the "
                             "last-good graph",
                             iteration - 1, config.max_iterations);
      break;
    }
    obs::Span iter_span("core.pipeline.phase2.iteration");
    iter_span.arg("iteration", static_cast<double>(iteration));
    try {
      // Composite features v = h ⊕ s for every scored pair on the current
      // graph. The edge-feature table resolves each edge's presence row
      // once per iteration; pairs then fan out over the pool in fixed
      // chunks, each chunk reusing one social-feature builder across its
      // pairs, with the k-hop working set covered by the per-worker scratch
      // charge. The presence half comes from the feature cache — a
      // guaranteed hit after phase 1, which is exactly what the cache's
      // hit-rate accounting is meant to show.
      obs::Span composite_span("core.phase2.composite");
      const EdgeFeatureTable table =
          config.use_social_feature
              ? make_edge_feature_table(labels.graph, d, edge_feature)
              : EdgeFeatureTable{};
      par::ParallelOptions copts;
      copts.context = ctx;
      copts.what = "core.phase2.composite";
      copts.grain = 8;
      copts.scratch_bytes_per_worker = (social_width + d) * sizeof(double);
      par::parallel_for_chunks(count, copts, [&](const par::ChunkRange& chunk) {
        std::optional<SocialFeatureBuilder> social;
        std::vector<double> heuristic;
        if (config.use_social_feature)
          social.emplace(labels.graph, table, social_cfg);
        std::uint64_t edge_hits = 0;
        for (std::size_t si = chunk.begin; si < chunk.end; ++si) {
          const data::UserPair& pair = u.pairs[u.scored[si]];
          double* row = composite.row(si);
          const double* h = cache.find_presence(pair);
          std::copy(h, h + d, row);
          if (social.has_value()) {
            edge_hits += social->compute(pair.first, pair.second, row + d);
          } else {
            heuristic_social_feature(labels.graph, pair.first, pair.second,
                                     social_cfg, heuristic);
            std::copy(heuristic.begin(), heuristic.end(), row + d);
          }
        }
        cache.count_presence_hits(edge_hits);
      });
      composite_span.end();

      obs::Span classify_span("core.phase2.classify");
      const std::vector<double> decision =
          classify(composite, u, train_labels, config, iteration);
      classify_span.end();
      relabel(decision, tune_on_train(decision, u, train_labels), u, labels);
      graph::Graph next = graph_from_predictions(labels.graph.node_count(),
                                                 u, labels.predictions);
      const double change = graph::edge_change_ratio(labels.graph, next);
      labels.graph = std::move(next);
      record_iteration(result, u, labels, iteration, change);
      result.iterations_run = iteration;
      if (!after_first_iteration.has_value())
        after_first_iteration = cache.stats();
      const double edges = static_cast<double>(labels.graph.edge_count());
      iter_span.arg("edges", edges);
      iter_span.arg("change", change);
      obs::tracer().counter("core.pipeline.edge_churn", change);
      obs::tracer().counter("core.pipeline.graph_edges", edges);
      set_gauge("core.pipeline.edge_churn",
                "edge-change ratio of the latest phase-2 iteration", change);
      set_gauge("core.pipeline.graph_edges",
                "edge count of the current inferred graph", edges);
      obs::metrics()
          .counter("core.pipeline.iterations_total", {},
                   "phase-2 refinement iterations executed")
          .add(1);
      util::log_debug("FriendSeeker: iter=", iteration,
                      " edges=", labels.graph.edge_count(), " change=", change,
                      " (", iter_span.seconds(), "s)");
      save(iteration);
      // Simulated process kill at the iteration boundary, after the
      // checkpoint save. InjectedKill is not an fs::Error, so the
      // degradation catch below cannot swallow it — it unwinds to the top
      // like a real crash and the chaos harness resumes from disk.
      if (util::failpoint::fail("pipeline.iteration.abort"))
        throw util::failpoint::InjectedKill(
            "pipeline.iteration.abort: injected kill after iteration " +
            std::to_string(iteration));
      if (change < config.convergence_threshold) {
        result.converged = true;
        break;
      }
    } catch (const Error& e) {
      const ErrorCode code = e.code();
      if (code != ErrorCode::kNumeric && code != ErrorCode::kConvergence &&
          code != ErrorCode::kBudget && code != ErrorCode::kCancelled)
        throw;
      // Recoverable failures in phase 2 degrade gracefully: keep the
      // last-good graph (possibly the phase-1 seed) instead of failing the
      // whole attack. Numeric divergence keeps its diagnostics-only
      // reporting; budget/cancellation additionally land in the structured
      // DegradationReport.
      diagnostics.report(util::Severity::kError, code, "pipeline",
                         "phase-2 iteration " + std::to_string(iteration) +
                             " abandoned, keeping last-good graph: " +
                             e.what());
      if (code == ErrorCode::kBudget || code == ErrorCode::kCancelled)
        result.degradation.add(
            "phase2.refine",
            code == ErrorCode::kCancelled ? "cancelled" : "memory", e.what(),
            iteration - 1, config.max_iterations);
      break;
    }
  }
  if (ctx != nullptr && !result.converged && !result.degradation.degraded() &&
      result.iterations_run == config.max_iterations)
    result.degradation.add("phase2.refine", "iterations",
                           "iteration cap reached before convergence",
                           result.iterations_run, config.max_iterations);
  result.fell_back_to_phase1 = result.iterations.size() == 1 &&
                               result.iterations.front().iteration == 0;
  if (after_first_iteration.has_value()) {
    const block::FeatureCache::Stats now = cache.stats();
    const std::uint64_t late_hits = now.hits() - after_first_iteration->hits();
    const std::uint64_t late_misses =
        now.misses() - after_first_iteration->misses();
    if (late_hits + late_misses > 0)
      result.phase2_cache_hit_rate =
          static_cast<double>(late_hits) /
          static_cast<double>(late_hits + late_misses);
  }
}

/// Mirrors the run's accounting into metrics so --metrics-out captures it
/// even when the caller never inspects the result object.
void publish_run(const FriendSeekerResult& result,
                 const runtime::ExecutionContext* ctx) {
  obs::metrics()
      .counter("block.candidates_pruned", {},
               "candidate pairs pruned from the scored universe by blocking")
      .add(static_cast<double>(result.blocking.pruned_pairs));
  set_gauge("block.universe_pairs",
            "candidate pairs supplied to the latest run",
            static_cast<double>(result.blocking.universe_pairs));
  set_gauge("block.scored_pairs",
            "pairs actually scored after blocking in the latest run",
            static_cast<double>(result.blocking.scored_pairs));
  set_gauge("block.cache.bytes", "feature-cache arena bytes held",
            static_cast<double>(result.cache.bytes));
  set_gauge("block.cache.hits", "feature-cache lookup hits (cumulative)",
            static_cast<double>(result.cache.hits()));
  set_gauge("block.cache.misses", "feature-cache lookup misses (cumulative)",
            static_cast<double>(result.cache.misses()));
  set_gauge("block.cache.phase2_hit_rate",
            "cache hit rate over phase-2 iterations >= 2 of the latest run",
            result.phase2_cache_hit_rate);
  obs::bridge_diagnostics(result.diagnostics);
  obs::bridge_degradation(result.degradation);
  if (ctx != nullptr) obs::bridge_execution(*ctx);
}

}  // namespace

FriendSeekerResult FriendSeeker::run(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  if (train_pairs.size() != train_labels.size())
    throw std::invalid_argument("FriendSeeker::run: train size mismatch");
  if (train_pairs.empty() || test_pairs.empty())
    throw std::invalid_argument("FriendSeeker::run: empty pair lists");

  runtime::pin_heap_policy();
  runtime::ExecutionContext* const ctx = config_.context;
  obs::Span run_span("core.pipeline.run");

  const Division division = divide(dataset, config_, ctx);
  const Universe universe = build_universe(division.cell_index, train_pairs,
                                           test_pairs, config_.blocking);

  // Run-local feature cache unless the caller shares one.
  block::FeatureCache local_cache;
  block::FeatureCache& cache =
      config_.feature_cache != nullptr ? *config_.feature_cache : local_cache;
  const std::uint64_t signature =
      cache_signature(division, config_, train_pairs, train_labels);
  cache.prepare(signature, division.occupancy.joc_dim(),
                config_.presence.feature_dim, ctx);

  CheckpointSlot checkpoint;
  if (!config_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config_.checkpoint_dir);
    checkpoint.path = config_.checkpoint_dir + "/checkpoint.fsck";
    checkpoint.fingerprint = run_fingerprint(signature, universe, config_);
  }

  FriendSeekerResult result;
  Phase1 seed = phase1(division.occupancy, universe, train_labels, config_,
                       cache, checkpoint, dataset.user_count(), result);
  if (config_.iterate)
    phase2(seed, universe, train_labels, config_, cache, checkpoint, result);

  result.test_predictions.reserve(universe.test_rows.size());
  result.test_scores.reserve(universe.test_rows.size());
  for (std::size_t row : universe.test_rows) {
    result.test_predictions.push_back(seed.labels.predictions[row]);
    result.test_scores.push_back(seed.labels.scores[row]);
  }
  result.final_graph = std::move(seed.labels.graph);
  if (ctx != nullptr) result.peak_memory_estimate = ctx->peak_charged();
  result.blocking_active = universe.blocking_on;
  result.blocking = universe.stats;
  result.cache = cache.stats();
  publish_run(result, ctx);
  return result;
}

}  // namespace fs::core
