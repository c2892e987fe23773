#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
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

/// All candidate pairs (train + test) with a dense row index; the social
/// graph only ever contains candidate edges, so each edge has a feature row.
struct PairUniverse {
  std::vector<data::UserPair> pairs;
  std::map<data::UserPair, std::size_t> row_of;

  void add(const std::vector<data::UserPair>& more) {
    for (const data::UserPair& p : more) {
      const data::UserPair key = data::make_pair_ordered(p.first, p.second);
      if (row_of.emplace(key, pairs.size()).second) pairs.push_back(key);
    }
  }
};

graph::Graph graph_from_predictions(std::size_t user_count,
                                    const PairUniverse& universe,
                                    const std::vector<int>& predictions) {
  graph::Graph g(user_count);
  for (std::size_t i = 0; i < universe.pairs.size(); ++i)
    if (predictions[i])
      g.add_edge(universe.pairs[i].first, universe.pairs[i].second);
  return g;
}

/// FNV-1a over the run parameters a checkpoint must agree on; a resume
/// against a different dataset/config is rejected instead of mixed in.
std::uint64_t run_fingerprint(const FriendSeekerConfig& config,
                              const data::Dataset& dataset,
                              std::size_t universe_size,
                              std::size_t train_size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(dataset.user_count());
  mix(dataset.checkin_count());
  mix(universe_size);
  mix(train_size);
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.k));
  mix(config.sigma);
  mix(static_cast<std::uint64_t>(config.tau_days * 1e6));
  mix(config.presence.feature_dim);
  mix(static_cast<std::uint64_t>(config.phase2_classifier));
  // Blocking changes which rows are ever scored, so a checkpoint written
  // under one blocking configuration must not seed a run under another.
  mix(static_cast<std::uint64_t>(config.blocking.mode));
  mix(static_cast<std::uint64_t>(config.blocking.slot_tolerance));
  mix(static_cast<std::uint64_t>(config.blocking.hop_expansion));
  mix(config.blocking.auto_min_pairs);
  return h;
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

  runtime::ExecutionContext* const ctx = config_.context;
  obs::Span run_span("core.pipeline.run");

  // ---- Spatial-temporal division. ----
  obs::Span std_span("core.pipeline.std_division");
  const std::vector<geo::LatLng> poi_coords = dataset.poi_coordinates();
  std::unique_ptr<geo::QuadtreeDivision> quadtree;
  std::unique_ptr<geo::UniformGridDivision> uniform;
  std::unique_ptr<geo::SpatialDivision> division;
  if (config_.uniform_grid) {
    uniform = std::make_unique<geo::UniformGridDivision>(
        poi_coords, config_.uniform_rows, config_.uniform_cols);
    division = std::make_unique<geo::UniformGridDivisionView>(*uniform);
  } else {
    quadtree =
        std::make_unique<geo::QuadtreeDivision>(poi_coords, config_.sigma);
    division = std::make_unique<geo::QuadtreeDivisionView>(*quadtree);
  }
  const geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<geo::Timestamp>(config_.tau_days * geo::kSecondsPerDay));
  const OccupancyIndex occupancy(dataset, *division, slots);
  std_span.end();
  util::log_debug("FriendSeeker: STD I=", division->cell_count(),
                  " J=", slots.slot_count(), " joc_dim=", occupancy.joc_dim());

  // ---- Candidate-pair universe. ----
  PairUniverse universe;
  universe.add(train_pairs);
  universe.add(test_pairs);

  auto rows_of = [&](const std::vector<data::UserPair>& pairs) {
    std::vector<std::size_t> rows;
    rows.reserve(pairs.size());
    for (const data::UserPair& p : pairs)
      rows.push_back(
          universe.row_of.at(data::make_pair_ordered(p.first, p.second)));
    return rows;
  };
  const std::vector<std::size_t> train_rows = rows_of(train_pairs);
  const std::vector<std::size_t> test_rows = rows_of(test_pairs);

  // ---- Candidate predicate and blocking. ----
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
  const block::CellIndex cell_index(dataset, *division, slots, ctx);
  const bool blocking_on =
      block::blocking_enabled(config_.blocking, universe.pairs.size());
  block::BlockingStats blocking_stats;
  std::vector<char> candidate;
  {
    const graph::Graph strong = block::strong_cooccurrence_graph(cell_index);
    candidate = block::filter_universe(cell_index, strong, universe.pairs,
                                       config_.blocking, &blocking_stats);
  }
  constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  std::vector<std::size_t> active_of_row(universe.pairs.size(), kInactive);
  std::vector<std::size_t> active_rows;
  if (blocking_on) {
    // Scored rows: candidates plus every train row. Train pairs are always
    // scored — their labels are the attacker's own ground truth and both
    // phases train on their feature rows — though a non-candidate train
    // pair is still gated to non-friend like any other.
    std::vector<char> keep = candidate;
    for (std::size_t row : train_rows) {
      if (!keep[row]) {
        keep[row] = 1;
        ++blocking_stats.forced_pairs;
        ++blocking_stats.scored_pairs;
        --blocking_stats.pruned_pairs;
      }
    }
    active_rows.reserve(blocking_stats.scored_pairs);
    for (std::size_t row = 0; row < keep.size(); ++row) {
      if (keep[row]) {
        active_of_row[row] = active_rows.size();
        active_rows.push_back(row);
      }
    }
  } else {
    active_rows.resize(universe.pairs.size());
    for (std::size_t row = 0; row < active_rows.size(); ++row) {
      active_rows[row] = row;
      active_of_row[row] = row;
    }
    blocking_stats = block::BlockingStats{};
    blocking_stats.universe_pairs = universe.pairs.size();
    blocking_stats.scored_pairs = universe.pairs.size();
  }
  const std::size_t active_count = active_rows.size();
  auto active_indices_of = [&](const std::vector<std::size_t>& rows) {
    std::vector<std::size_t> out;
    out.reserve(rows.size());
    for (std::size_t row : rows) out.push_back(active_of_row[row]);
    return out;
  };
  const std::vector<std::size_t> train_active = active_indices_of(train_rows);
  util::log_debug("FriendSeeker: universe=", universe.pairs.size(),
                  " scored=", active_count,
                  blocking_on ? " (blocking on)" : " (blocking off)");

  // ---- Feature cache (run-local unless the caller shares one). ----
  // The signature covers everything the cached rows are a function of: the
  // binned dataset (cell-index content hash) for JOC rows, plus the
  // presence recipe, seeds, and training set for encoded rows. One shared
  // signature is conservative — a seed change also drops the still-valid
  // JOC rows — but keeps invalidation impossible to get subtly wrong.
  block::FeatureCache local_cache;
  block::FeatureCache* const cache =
      config_.feature_cache != nullptr ? config_.feature_cache : &local_cache;
  std::uint64_t cache_signature = cell_index.signature();
  {
    const auto mix = [&cache_signature](std::uint64_t v) {
      cache_signature ^= v;
      cache_signature *= 0x100000001b3ULL;
    };
    const auto mix_double = [&](double v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    };
    mix(config_.seed);
    mix(config_.presence.feature_dim);
    mix(static_cast<std::uint64_t>(config_.presence.max_hidden_layers));
    mix(config_.presence.max_hidden_width);
    mix(static_cast<std::uint64_t>(config_.presence.epochs));
    mix(config_.presence.batch_size);
    mix(config_.presence.knn_k);
    mix(config_.presence.max_autoencoder_rows);
    mix(config_.presence.max_knn_rows);
    mix(config_.presence.seed);
    mix_double(config_.presence.learning_rate);
    mix_double(config_.presence.alpha);
    mix(train_pairs.size());
    for (std::size_t i = 0; i < train_pairs.size(); ++i) {
      mix((static_cast<std::uint64_t>(train_pairs[i].first) << 32) |
          static_cast<std::uint64_t>(train_pairs[i].second));
      mix(static_cast<std::uint64_t>(train_labels[i]));
    }
  }
  cache->prepare(cache_signature, occupancy.joc_dim(),
                 config_.presence.feature_dim, ctx);

  // ---- JOC rows for the scored universe (cache-backed). ----
  // The JOC matrix is the run's dominant allocation; charge its estimate
  // against the memory budget up front so an over-budget configuration is
  // rejected before the build instead of OOMing halfway through.
  const runtime::MemoryCharge joc_charge(
      ctx, active_count * occupancy.joc_dim() * sizeof(double),
      "core.joc.matrix");
  nn::Matrix all_jocs(active_count, occupancy.joc_dim());
  {
    obs::Span joc_span("core.joc.fill");
    // Slot allocation is sequential (insert mutates the arena); only the
    // row fills fan out, each into a disjoint arena row, so the result is
    // byte-identical at any thread count.
    std::vector<const double*> rows(active_count);
    std::vector<double*> fill;
    std::vector<std::size_t> fill_ai;
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const data::UserPair& pair = universe.pairs[active_rows[ai]];
      if (const double* hit = cache->find_joc(pair)) {
        rows[ai] = hit;
      } else {
        double* slot = cache->insert_joc(pair);
        rows[ai] = slot;
        fill.push_back(slot);
        fill_ai.push_back(ai);
      }
    }
    JocOptions joc_options;
    joc_options.context = ctx;
    par::ParallelOptions jopts;
    jopts.context = ctx;
    jopts.what = "core.joc.fill";
    jopts.grain = par::grain_for(occupancy.joc_dim() * 4);
    const auto fill_one = [&](std::size_t i) {
      const data::UserPair& pair = universe.pairs[active_rows[fill_ai[i]]];
      build_joc(occupancy, pair.first, pair.second, fill[i], joc_options);
    };
    par::parallel_for(fill.size(), jopts, fill_one);
    par::parallel_for(active_count, jopts, [&](std::size_t ai) {
      std::copy(rows[ai], rows[ai] + occupancy.joc_dim(), all_jocs.row(ai));
    });
    obs::metrics()
        .counter("core.joc.rows_total", {}, "JOC feature rows built")
        .add(fill.size());
    joc_span.arg("rows", static_cast<double>(active_count));
    joc_span.arg("built", static_cast<double>(fill.size()));
  }

  FriendSeekerResult result;
  util::Diagnostics& diagnostics = result.diagnostics;

  // ---- Checkpoint/resume bookkeeping. ----
  const std::string checkpoint_path =
      config_.checkpoint_dir.empty()
          ? std::string()
          : config_.checkpoint_dir + "/checkpoint.fsck";
  const std::uint64_t fingerprint = run_fingerprint(
      config_, dataset, universe.pairs.size(), train_pairs.size());
  if (!config_.checkpoint_dir.empty())
    std::filesystem::create_directories(config_.checkpoint_dir);

  std::optional<PipelineCheckpoint> resumed;
  if (config_.resume && !checkpoint_path.empty() &&
      !std::filesystem::exists(checkpoint_path)) {
    diagnostics.report(util::Severity::kInfo, ErrorCode::kIo, "pipeline",
                       "no checkpoint at " + checkpoint_path +
                           "; starting fresh");
  }
  if (config_.resume && !checkpoint_path.empty() &&
      std::filesystem::exists(checkpoint_path)) {
    try {
      PipelineCheckpoint cp = load_pipeline_checkpoint(checkpoint_path);
      if (cp.fingerprint != fingerprint) {
        diagnostics.report(util::Severity::kWarning,
                           ErrorCode::kCorruptCheckpoint, "pipeline",
                           "checkpoint fingerprint mismatch (different "
                           "dataset or config); restarting from phase 1");
      } else if (cp.predictions.size() != universe.pairs.size() ||
                 cp.scores.size() != universe.pairs.size() ||
                 !cp.presence.has_value() || !cp.presence->trained()) {
        diagnostics.report(util::Severity::kWarning,
                           ErrorCode::kCorruptCheckpoint, "pipeline",
                           "checkpoint shape mismatch; restarting from "
                           "phase 1");
      } else {
        resumed = std::move(cp);
      }
    } catch (const Error& e) {
      diagnostics.report(util::Severity::kWarning,
                         ErrorCode::kCorruptCheckpoint, "pipeline",
                         std::string("cannot resume, restarting cleanly: ") +
                             e.what());
    }
  }

  // ---- Phase 1: presence model (trained, or restored from checkpoint). --
  PresenceModelConfig presence_cfg = config_.presence;
  presence_cfg.seed ^= config_.seed;
  presence_cfg.diagnostics = &diagnostics;
  std::optional<PresenceModel> presence_storage;
  if (resumed.has_value()) {
    presence_storage = std::move(*resumed->presence);
    result.resumed_from_iteration = resumed->iteration;
    diagnostics.report(util::Severity::kInfo, ErrorCode::kIo, "pipeline",
                       "resumed from checkpoint at iteration " +
                           std::to_string(resumed->iteration));
  } else {
    presence_cfg.context = ctx;
    presence_storage.emplace(presence_cfg);
    obs::Span phase1_timer("core.pipeline.phase1");
    {
      // Per-phase budget: tighten the deadline for phase 1 only. An expired
      // deadline truncates autoencoder training at the next epoch boundary
      // (a partially trained model is still usable), recorded below.
      runtime::PhaseScope phase1_scope(ctx, config_.phase1_budget_sec);
      presence_storage->train(all_jocs.gather_rows(train_active),
                              train_labels);
      if (ctx != nullptr && ctx->deadline_expired())
        result.degradation.add("phase1.autoencoder", "deadline",
                               "training truncated by wall-clock budget");
    }
    phase1_timer.end();
    util::log_debug("FriendSeeker: phase-1 training ",
                    phase1_timer.seconds(), "s");
  }
  PresenceModel& presence = *presence_storage;
  const std::size_t d = presence.feature_dim();

  // ---- Presence features for the scored universe (cache-backed). ----
  // Rows already in the cache (phase-2 re-entries, shared caches across
  // runs) skip the encoder entirely; only the misses run a forward pass.
  const runtime::MemoryCharge embedding_charge(
      ctx, active_count * d * sizeof(double), "core.embeddings");
  obs::Span encode_span("core.pipeline.phase1.encode");
  nn::Matrix embeddings(active_count, d);
  {
    std::vector<std::size_t> encode_ai;
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const data::UserPair& pair = universe.pairs[active_rows[ai]];
      if (const double* hit = cache->find_presence(pair))
        std::copy(hit, hit + d, embeddings.row(ai));
      else
        encode_ai.push_back(ai);
    }
    if (!encode_ai.empty()) {
      const nn::Matrix fresh =
          presence.encode(all_jocs.gather_rows(encode_ai));
      for (std::size_t i = 0; i < encode_ai.size(); ++i) {
        const std::size_t ai = encode_ai[i];
        double* slot =
            cache->insert_presence(universe.pairs[active_rows[ai]]);
        std::copy(fresh.row(i), fresh.row(i) + d, slot);
        std::copy(fresh.row(i), fresh.row(i) + d, embeddings.row(ai));
      }
    }
    encode_span.arg("rows", static_cast<double>(active_count));
    encode_span.arg("encoded", static_cast<double>(encode_ai.size()));
  }
  const std::vector<double> phase1_proba =
      presence.predict_proba_encoded(embeddings);
  encode_span.end();
  for (double p : phase1_proba)
    if (!std::isfinite(p))
      throw NumericError(
          "FriendSeeker: phase-1 probabilities contain non-finite values");

  // The operating point is picked on the training split (every attack in
  // the evaluation does the same — the attacker maximizes train F1).
  // `active_scores` is indexed by active (scored) row, not universe row.
  auto tune_on_train = [&](const std::vector<double>& active_scores) {
    std::vector<double> train_scores;
    train_scores.reserve(train_active.size());
    for (std::size_t ai : train_active)
      train_scores.push_back(active_scores[ai]);
    return ml::tune_f1_threshold(train_scores, train_labels).threshold;
  };

  std::vector<int> predictions;
  std::vector<double> scores;
  int start_iteration = 1;
  if (resumed.has_value()) {
    predictions = std::move(resumed->predictions);
    scores = std::move(resumed->scores);
    start_iteration = resumed->iteration + 1;
  } else {
    // Phase 1 seeds the graph; a too-permissive cut floods G(0) with
    // false edges that phase 2 then has to prune back (overshoot). The seed
    // cut is therefore never below the KNN's natural majority threshold.
    const double phase1_cut = std::max(tune_on_train(phase1_proba), 0.5);
    predictions.assign(universe.pairs.size(), 0);
    scores.assign(universe.pairs.size(), 0.0);
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const std::size_t row = active_rows[ai];
      predictions[row] = candidate[row] && phase1_proba[ai] >= phase1_cut;
      scores[row] = phase1_proba[ai];
    }
  }

  auto record_iteration = [&](int iteration, double change,
                              const graph::Graph& g) {
    IterationRecord rec;
    rec.iteration = iteration;
    rec.edge_change_ratio = change;
    rec.graph_edges = g.edge_count();
    rec.test_predictions.reserve(test_rows.size());
    for (std::size_t row : test_rows)
      rec.test_predictions.push_back(predictions[row]);
    result.iterations.push_back(std::move(rec));
  };

  graph::Graph current = graph_from_predictions(dataset.user_count(),
                                                universe, predictions);
  // Iteration 0 is the phase-1 graph; a resumed run's baseline is the
  // checkpointed iteration instead (change 0: nothing moved since the save).
  record_iteration(start_iteration - 1, resumed.has_value() ? 0.0 : 1.0,
                   current);
  util::log_debug("FriendSeeker: baseline graph edges=",
                  current.edge_count());

  auto save_checkpoint_if_configured = [&](int iteration) {
    if (checkpoint_path.empty()) return;
    PipelineCheckpoint cp;
    cp.fingerprint = fingerprint;
    cp.iteration = iteration;
    cp.predictions = predictions;
    cp.scores = scores;
    cp.presence = presence;  // copy: the run keeps using the original
    try {
      save_pipeline_checkpoint(checkpoint_path, cp);
    } catch (const Error& e) {
      // A failed save never kills the run; it only costs resumability.
      diagnostics.report(util::Severity::kWarning, ErrorCode::kIo,
                         "pipeline",
                         std::string("checkpoint save failed: ") + e.what());
    }
  };

  // Cache traffic of phase-2 iterations >= 2: the steady state the cache
  // exists for, measured for the result and the perf bench.
  std::optional<block::FeatureCache::Stats> after_first_iteration;

  if (config_.iterate) {
    // ---- Phase 2: iterative hidden-friends inference. ----
    SocialFeatureConfig social_cfg;
    social_cfg.k = config_.k;
    social_cfg.feature_dim = d;

    const std::size_t social_width =
        static_cast<std::size_t>(config_.k - 1) * d;
    const std::size_t composite_width = d + social_width;

    EdgeFeatureFn edge_feature = [&](data::UserId a, data::UserId b,
                                     std::vector<double>& out) {
      const auto it =
          universe.row_of.find(data::make_pair_ordered(a, b));
      if (it == universe.row_of.end()) return false;
      // Pruned rows never carry an edge, so this probe only rejects pairs
      // outside the universe; it also keeps the cache's hit accounting
      // clean of pairs that were never cached.
      if (active_of_row[it->second] == kInactive) return false;
      const double* h = cache->find_presence(it->first);
      if (h == nullptr) return false;
      out.assign(h, h + d);
      return true;
    };

    // The composite matrix is phase 2's dominant allocation; it and its
    // budget charge are hoisted out of the refinement loop and reused every
    // iteration. A failed charge degrades exactly like an in-iteration
    // budget failure: keep the phase-1 graph.
    std::optional<runtime::MemoryCharge> composite_charge;
    nn::Matrix composite;
    bool phase2_ready = true;
    try {
      composite_charge.emplace(
          ctx, active_count * composite_width * sizeof(double),
          "core.phase2.composite");
      composite = nn::Matrix(active_count, composite_width);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kBudget) throw;
      phase2_ready = false;
      diagnostics.report(util::Severity::kError, e.code(), "pipeline",
                         std::string("phase 2 abandoned, keeping phase-1 "
                                     "graph: ") +
                             e.what());
      result.degradation.add("phase2.refine", "memory", e.what(),
                             start_iteration - 1, config_.max_iterations);
    }

    // Hoisted per-iteration temporaries: capacity survives across
    // iterations instead of being reallocated each refinement pass.
    std::vector<std::size_t> svm_rows;
    std::vector<int> svm_labels;
    std::vector<std::size_t> order;
    std::vector<double> decision;

    // Per-phase budget for the whole refinement loop; the loop-top probes
    // below truncate at iteration boundaries, where the last-good graph
    // and checkpoint are both current.
    runtime::PhaseScope phase2_scope(ctx, config_.phase2_budget_sec);
    for (int iteration = start_iteration;
         phase2_ready && iteration <= config_.max_iterations; ++iteration) {
      if (ctx != nullptr && ctx->cancelled()) {
        result.degradation.add("phase2.refine", "cancelled",
                               "stopped at iteration boundary; the last "
                               "checkpoint is current",
                               iteration - 1, config_.max_iterations);
        break;
      }
      if (ctx != nullptr && ctx->deadline_expired()) {
        result.degradation.add("phase2.refine", "deadline",
                               "wall-clock budget exhausted; keeping the "
                               "last-good graph",
                               iteration - 1, config_.max_iterations);
        break;
      }
      obs::Span iter_span("core.pipeline.phase2.iteration");
      iter_span.arg("iteration", static_cast<double>(iteration));
      try {
      // Composite features v = h ⊕ s for every scored pair on the current
      // graph. Pairs fan out over the pool in fixed chunks; each chunk
      // reuses one social/edge scratch pair across its pairs, and the
      // k-hop working set is covered by the per-worker scratch charge. The
      // presence half comes from the feature cache — a guaranteed hit
      // after the phase-1 fill, which is exactly what the cache's hit-rate
      // accounting is meant to show.
      par::ParallelOptions copts;
      copts.context = ctx;
      copts.what = "core.phase2.composite";
      copts.grain = 8;
      copts.scratch_bytes_per_worker = (social_width + d) * sizeof(double);
      par::parallel_for_chunks(
          active_count, copts,
          [&](const par::ChunkRange& chunk) {
            std::vector<double> social, edge_scratch;
            social.reserve(social_width);
            edge_scratch.reserve(d);
            for (std::size_t ai = chunk.begin; ai < chunk.end; ++ai) {
              const auto [a, b] = universe.pairs[active_rows[ai]];
              double* row = composite.row(ai);
              const double* h =
                  cache->find_presence(universe.pairs[active_rows[ai]]);
              std::copy(h, h + d, row);
              if (config_.use_social_feature)
                social_proximity_feature(current, a, b, social_cfg,
                                         edge_feature, social, edge_scratch);
              else
                heuristic_social_feature(current, a, b, social_cfg, social);
              std::copy(social.begin(), social.end(), row + d);
            }
          });

      // Train C' on the labeled pairs (subsampled under the kernel cap).
      // The RNG is derived from (seed, iteration) alone — never from how
      // many iterations this process has executed — so a run resumed from
      // a checkpoint subsamples identically to an uninterrupted one
      // (resume-equivalence).
      util::Rng svm_rng(config_.seed ^ 0x5117ULL ^
                        (static_cast<std::uint64_t>(iteration) *
                         0x9e3779b97f4a7c15ULL));
      svm_rows.assign(train_active.begin(), train_active.end());
      svm_labels.assign(train_labels.begin(), train_labels.end());
      if (svm_rows.size() > config_.max_svm_train_rows) {
        order.resize(svm_rows.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        svm_rng.shuffle(order);
        order.resize(config_.max_svm_train_rows);
        for (std::size_t j = 0; j < order.size(); ++j) {
          svm_rows[j] = train_active[order[j]];
          svm_labels[j] = train_labels[order[j]];
        }
        svm_rows.resize(order.size());
        svm_labels.resize(order.size());
      }

      ml::StandardScaler scaler;
      const nn::Matrix svm_train =
          scaler.fit_transform(composite.gather_rows(svm_rows));
      const nn::Matrix all_scaled = scaler.transform(composite);
      if (config_.phase2_classifier ==
          FriendSeekerConfig::Phase2Classifier::kLogistic) {
        ml::LogisticClassifier clf(config_.logistic);
        clf.fit(svm_train, svm_labels);
        decision = clf.decision(all_scaled);
      } else {
        ml::SvmConfig svm_cfg = config_.svm;
        svm_cfg.seed ^= static_cast<std::uint64_t>(iteration);
        svm_cfg.context = ctx;
        ml::SvmClassifier svm(svm_cfg);
        svm.fit(svm_train, svm_labels);
        decision = svm.decision(all_scaled);
      }
      // All mutation of the working state (predictions/scores/graph)
      // happens after this check, so a diverged classifier leaves the
      // last-good iteration intact for the fallback below.
      for (double v : decision)
        if (!std::isfinite(v))
          throw NumericError("FriendSeeker: non-finite decision scores at "
                             "iteration " +
                             std::to_string(iteration));

      const double cut = tune_on_train(decision);
      // Hysteresis: borderline pairs keep their previous state, so the
      // graph settles instead of oscillating around the cut. The decision
      // spread is estimated on the candidate-or-train rows — the rows
      // scored identically in every blocking mode (a dense run also scores
      // non-candidates, but those are excluded here) — so a blocked and a
      // dense run see the same margin, which is what makes their graphs
      // comparable edge-for-edge.
      double margin = 0.0;
      if (config_.flip_margin > 0.0) {
        double mean = 0.0, sq = 0.0;
        std::size_t margin_rows = 0;
        for (std::size_t ai = 0; ai < active_count; ++ai) {
          if (!candidate[active_rows[ai]]) continue;
          mean += decision[ai];
          ++margin_rows;
        }
        for (std::size_t ai : train_active) {
          if (candidate[active_rows[ai]]) continue;
          mean += decision[ai];
          ++margin_rows;
        }
        mean /= static_cast<double>(margin_rows);
        for (std::size_t ai = 0; ai < active_count; ++ai) {
          if (!candidate[active_rows[ai]]) continue;
          const double delta = decision[ai] - mean;
          sq += delta * delta;
        }
        for (std::size_t ai : train_active) {
          if (candidate[active_rows[ai]]) continue;
          const double delta = decision[ai] - mean;
          sq += delta * delta;
        }
        margin = config_.flip_margin *
                 std::sqrt(sq / static_cast<double>(margin_rows));
      }
      for (std::size_t ai = 0; ai < active_count; ++ai) {
        const std::size_t row = active_rows[ai];
        if (!candidate[row]) {
          // Non-candidate rows are scored (dense mode) but never labeled
          // friend — the candidate gate is part of the model.
          predictions[row] = 0;
        } else if (decision[ai] >= cut + margin) {
          predictions[row] = 1;
        } else if (decision[ai] < cut - margin) {
          predictions[row] = 0;
        }
        // else: inside the hysteresis band — keep the previous state.
        scores[row] = decision[ai];
      }

      graph::Graph next = graph_from_predictions(dataset.user_count(),
                                                 universe, predictions);
      const double change = graph::edge_change_ratio(current, next);
      current = std::move(next);
      record_iteration(iteration, change, current);
      result.iterations_run = iteration;
      if (!after_first_iteration.has_value())
        after_first_iteration = cache->stats();
      const double edges = static_cast<double>(current.edge_count());
      iter_span.arg("edges", edges);
      iter_span.arg("change", change);
      obs::tracer().counter("core.pipeline.edge_churn", change);
      obs::tracer().counter("core.pipeline.graph_edges", edges);
      obs::metrics()
          .gauge("core.pipeline.edge_churn", {},
                 "edge-change ratio of the latest phase-2 iteration")
          .set(change);
      obs::metrics()
          .gauge("core.pipeline.graph_edges", {},
                 "edge count of the current inferred graph")
          .set(edges);
      obs::metrics()
          .counter("core.pipeline.iterations_total", {},
                   "phase-2 refinement iterations executed")
          .add(1);
      util::log_debug("FriendSeeker: iter=", iteration,
                      " edges=", current.edge_count(), " change=", change,
                      " (", iter_span.seconds(), "s)");
      save_checkpoint_if_configured(iteration);
      // Simulated process kill at the iteration boundary, after the
      // checkpoint save. InjectedKill is not an fs::Error, so the
      // degradation catch below cannot swallow it — it unwinds to the top
      // like a real crash and the chaos harness resumes from disk.
      if (util::failpoint::fail("pipeline.iteration.abort"))
        throw util::failpoint::InjectedKill(
            "pipeline.iteration.abort: injected kill after iteration " +
            std::to_string(iteration));
      if (change < config_.convergence_threshold) {
        result.converged = true;
        break;
      }
      } catch (const Error& e) {
        const ErrorCode code = e.code();
        if (code != ErrorCode::kNumeric &&
            code != ErrorCode::kConvergence &&
            code != ErrorCode::kBudget && code != ErrorCode::kCancelled)
          throw;
        // Recoverable failures in phase 2 degrade gracefully: keep the
        // last-good graph (possibly the phase-1 seed) instead of failing
        // the whole attack. Numeric divergence keeps its diagnostics-only
        // reporting; budget/cancellation additionally land in the
        // structured DegradationReport.
        diagnostics.report(util::Severity::kError, code, "pipeline",
                           "phase-2 iteration " + std::to_string(iteration) +
                               " abandoned, keeping last-good graph: " +
                               e.what());
        if (code == ErrorCode::kBudget || code == ErrorCode::kCancelled)
          result.degradation.add(
              "phase2.refine",
              code == ErrorCode::kCancelled ? "cancelled" : "memory",
              e.what(), iteration - 1, config_.max_iterations);
        break;
      }
    }
    if (ctx != nullptr && !result.converged && !result.degradation.degraded() &&
        result.iterations_run == config_.max_iterations)
      result.degradation.add("phase2.refine", "iterations",
                             "iteration cap reached before convergence",
                             result.iterations_run, config_.max_iterations);
    result.fell_back_to_phase1 =
        result.iterations.size() == 1 &&
        result.iterations.front().iteration == 0;
  }

  result.test_predictions.reserve(test_rows.size());
  result.test_scores.reserve(test_rows.size());
  for (std::size_t row : test_rows) {
    result.test_predictions.push_back(predictions[row]);
    result.test_scores.push_back(scores[row]);
  }
  result.final_graph = std::move(current);
  if (ctx != nullptr) result.peak_memory_estimate = ctx->peak_charged();

  // ---- Blocking & cache accounting. ----
  result.blocking_active = blocking_on;
  result.blocking = blocking_stats;
  result.cache = cache->stats();
  if (after_first_iteration.has_value()) {
    const std::uint64_t late_hits =
        result.cache.hits() - after_first_iteration->hits();
    const std::uint64_t late_misses =
        result.cache.misses() - after_first_iteration->misses();
    if (late_hits + late_misses > 0)
      result.phase2_cache_hit_rate =
          static_cast<double>(late_hits) /
          static_cast<double>(late_hits + late_misses);
  }
  obs::metrics()
      .counter("block.candidates_pruned", {},
               "candidate pairs pruned from the scored universe by blocking")
      .add(static_cast<double>(blocking_stats.pruned_pairs));
  obs::metrics()
      .gauge("block.universe_pairs", {},
             "candidate pairs supplied to the latest run")
      .set(static_cast<double>(blocking_stats.universe_pairs));
  obs::metrics()
      .gauge("block.scored_pairs", {},
             "pairs actually scored after blocking in the latest run")
      .set(static_cast<double>(blocking_stats.scored_pairs));
  obs::metrics()
      .gauge("block.cache.bytes", {}, "feature-cache arena bytes held")
      .set(static_cast<double>(result.cache.bytes));
  obs::metrics()
      .gauge("block.cache.hits", {}, "feature-cache lookup hits (cumulative)")
      .set(static_cast<double>(result.cache.hits()));
  obs::metrics()
      .gauge("block.cache.misses", {},
             "feature-cache lookup misses (cumulative)")
      .set(static_cast<double>(result.cache.misses()));
  obs::metrics()
      .gauge("block.cache.phase2_hit_rate", {},
             "cache hit rate over phase-2 iterations >= 2 of the latest run")
      .set(result.phase2_cache_hit_rate);
  // Mirror the run's sinks into gauges so --metrics-out captures them even
  // when the caller never inspects the result object.
  obs::bridge_diagnostics(diagnostics);
  obs::bridge_degradation(result.degradation);
  if (ctx != nullptr) obs::bridge_execution(*ctx);
  return result;
}

}  // namespace fs::core
