#include "scenario/runner.h"

#include <chrono>
#include <map>
#include <utility>

#include "block/feature_cache.h"
#include "data/defense.h"
#include "data/dynamics.h"
#include "data/obfuscation.h"
#include "eval/digest.h"
#include "eval/presets.h"
#include "geo/quadtree.h"
#include "ml/metrics.h"
#include "par/pool.h"
#include "util/rng.h"
#include "util/runtime.h"

namespace fs::scenario {

namespace {

std::uint64_t fnv64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t config_seed, const std::string& tag) {
  std::uint64_t state = config_seed ^ fnv64(tag);
  return util::splitmix64(state);
}

}  // namespace

data::SyntheticWorldConfig resolve_world(const WorldSpec& spec,
                                         std::uint64_t config_seed) {
  data::SyntheticWorldConfig world = eval::bench_preset(spec.preset).world;
  if (spec.users != 0) world.user_count = spec.users;
  if (spec.pois != 0) world.poi_count = spec.pois;
  if (spec.weeks != 0) world.weeks = spec.weeks;
  if (spec.cyber_fraction >= 0.0)
    world.cyber_edge_fraction = spec.cyber_fraction;
  world.seed += config_seed + spec.seed_offset;
  world.name = world_label(spec);
  return world;
}

core::FriendSeekerConfig resolve_seeker(const WorldSpec& world,
                                        const AttackSpec& attack,
                                        const ModelSpec& model,
                                        std::uint64_t config_seed) {
  core::FriendSeekerConfig seeker = eval::bench_preset(world.preset).seeker;
  seeker.seed += config_seed;

  seeker.blocking.mode = attack.blocking;

  if (model.tau_days > 0.0) seeker.tau_days = model.tau_days;
  if (model.sigma != 0) seeker.sigma = model.sigma;
  if (model.slot_tolerance >= 0)
    seeker.blocking.slot_tolerance = model.slot_tolerance;
  switch (model.predicate) {
    case CandidatePredicate::kPreset:
      break;
    case CandidatePredicate::kCooccur:
      seeker.blocking.hop_expansion = 0;
      break;
    case CandidatePredicate::kCooccurHops:
      seeker.blocking.hop_expansion = 2;
      break;
  }
  return seeker;
}

std::uint64_t defense_seed(std::uint64_t config_seed,
                           const std::string& world_label,
                           const std::string& defense_label) {
  return derive_seed(config_seed,
                     "defense|" + world_label + "|" + defense_label);
}

std::uint64_t dynamics_seed(std::uint64_t config_seed,
                            const std::string& world_label,
                            const std::string& dynamics_label) {
  return derive_seed(config_seed,
                     "dynamics|" + world_label + "|" + dynamics_label);
}

std::uint64_t split_seed(std::uint64_t config_seed) {
  return 7 + config_seed;
}

data::Dataset apply_defense(const data::Dataset& ds, const DefenseSpec& spec,
                            std::uint64_t seed) {
  if (spec.mechanism == DefenseMechanism::kNone || spec.rate == 0.0)
    return ds.with_checkins(std::vector<data::CheckIn>(ds.checkins()));
  if (spec.mechanism == DefenseMechanism::kHiding)
    return data::hide_checkins_coupled(ds, spec.rate, seed);

  const geo::QuadtreeDivision division(ds.poi_coordinates(),
                                       spec.grid_sigma);
  util::Rng rng(seed);
  switch (spec.mechanism) {
    case DefenseMechanism::kBlurIn:
      return data::blur_in_grid(ds, spec.rate, division, rng);
    case DefenseMechanism::kBlurCross:
      return data::blur_cross_grid(ds, spec.rate, division, rng);
    case DefenseMechanism::kFriendGuard: {
      data::FriendGuardConfig guard;
      guard.budget = spec.rate;
      guard.seed = seed;
      return data::friend_guard(ds, division, guard);
    }
    default:
      return ds.with_checkins(std::vector<data::CheckIn>(ds.checkins()));
  }
}

data::Dataset apply_dynamics(const data::Dataset& ds,
                             const DynamicsSpec& spec, std::uint64_t seed) {
  if (spec.drift == 0.0)
    return ds.with_checkins(std::vector<data::CheckIn>(ds.checkins()));
  return data::apply_temporal_drift(ds, spec.drift, seed);
}

CellQuality compute_quality(const std::vector<int>& test_labels,
                            const std::vector<int>& predictions,
                            const std::vector<double>& scores) {
  CellQuality quality;
  const ml::Prf prf = ml::prf(test_labels, predictions);
  quality.precision = prf.precision;
  quality.recall = prf.recall;
  quality.f1 = prf.f1;
  quality.auc = ml::auc(test_labels, scores);
  for (int label : test_labels) quality.k += label == 1 ? 1 : 0;
  quality.precision_at_k =
      ml::precision_at_k(test_labels, scores, quality.k);
  return quality;
}

MatrixResult run_scenario(const ScenarioConfig& config,
                          const RunOptions& options) {
  MatrixResult matrix;
  matrix.config = config;
  matrix.config_fp = config_fingerprint(config);
  matrix.toolchain = eval::toolchain_fingerprint();

  const std::size_t process_threads = par::threads();
  const std::size_t ambient =
      options.threads != 0 ? options.threads : process_threads;
  matrix.threads = ambient;

  // Clean experiments per world label; perturbed experiments per
  // (world, dynamics, defense) coordinate. Both reuse the clean pair
  // split — ground truth never changes, only the published check-ins.
  std::map<std::string, eval::Experiment> clean_cache;
  std::map<std::string, eval::Experiment> variant_cache;
  block::FeatureCache feature_cache;
  block::FeatureCache::Stats last_totals;

  const auto grid = expand_grid(config);
  const auto grid_start = std::chrono::steady_clock::now();
  for (const ScenarioCell& cell : grid) {
    const std::string world_key = world_label(cell.world);
    auto clean_it = clean_cache.find(world_key);
    if (clean_it == clean_cache.end()) {
      const data::SyntheticWorldConfig world_cfg =
          resolve_world(cell.world, config.seed);
      clean_it = clean_cache
                     .emplace(world_key,
                              eval::make_experiment(world_cfg, {}, 0.7,
                                                    split_seed(config.seed)))
                     .first;
    }
    const eval::Experiment& clean = clean_it->second;

    const std::string dyn_key = dynamics_label(cell.dynamics);
    const std::string def_key = defense_label(cell.defense);
    const std::string variant_key =
        world_key + "\n" + dyn_key + "\n" + def_key;
    auto variant_it = variant_cache.find(variant_key);
    if (variant_it == variant_cache.end()) {
      eval::Experiment variant;
      data::Dataset drifted = apply_dynamics(
          clean.dataset, cell.dynamics,
          dynamics_seed(config.seed, world_key, dyn_key));
      variant.dataset = apply_defense(
          drifted, cell.defense,
          defense_seed(config.seed, world_key, def_key));
      variant.split = clean.split;
      variant.name = clean.name;
      variant_it =
          variant_cache.emplace(variant_key, std::move(variant)).first;
    }
    const eval::Experiment& experiment = variant_it->second;

    core::FriendSeekerConfig seeker =
        resolve_seeker(cell.world, cell.attack, cell.model, config.seed);
    seeker.feature_cache = &feature_cache;
    runtime::ExecutionContext context;
    seeker.context = &context;

    par::set_threads(cell.attack.threads != 0 ? cell.attack.threads
                                              : ambient);

    CellResult result;
    result.cell = cell;
    result.fingerprint = cell_fingerprint(config, cell);

    const auto start = std::chrono::steady_clock::now();
    eval::FriendSeekerAttack attack(seeker);
    const std::vector<int> predictions =
        attack.infer(experiment.dataset, experiment.split.train_pairs,
                     experiment.split.train_labels,
                     experiment.split.test_pairs);
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    const core::FriendSeekerResult& run = attack.last_result();
    result.quality = compute_quality(experiment.split.test_labels,
                                     predictions, run.test_scores);
    result.result_digest = eval::result_digest(run);
    result.final_graph_digest = eval::graph_digest(run.final_graph);
    result.peak_memory_bytes = context.peak_charged();
    result.universe_pairs = run.blocking.universe_pairs;
    result.scored_pairs = run.blocking.scored_pairs;
    result.pruned_pairs = run.blocking.pruned_pairs;
    result.blocking_active = run.blocking_active;

    // The shared cache's counters accumulate across cells; report the
    // delta so each cell's hit rate reflects its own lookups.
    const block::FeatureCache::Stats totals = run.cache;
    const std::uint64_t hits = totals.hits() - last_totals.hits();
    const std::uint64_t misses = totals.misses() - last_totals.misses();
    result.cache_hit_rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    last_totals = totals;

    if (options.on_cell) options.on_cell(result);
    matrix.cells.push_back(std::move(result));
  }
  matrix.total_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - grid_start)
                             .count();
  par::set_threads(process_threads);
  return matrix;
}

}  // namespace fs::scenario
