// attack-sampled and attack-full: a researcher running the batch attack.
//
// Set-up generates the gowalla-preset world for the seed, splits the
// balanced pair sample 70/30 and writes the SNAP files. One attack is what
// the CLI's `attack` verb does: load the SNAP files, FriendSeeker::run,
// read off the predictions. attack-full extends the test list to every
// user pair, so candidate blocking and the feature cache carry the run.
//
// The traced run (--trace 1) makes one untraced attack, one traced attack
// whose span rollup splits the time by layer, and a layer pass that times
// the block/core/kern public calls directly on the same inputs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "bench.h"
#include "block/candidate_gen.h"
#include "block/cell_index.h"
#include "core/joc.h"
#include "core/pipeline.h"
#include "core/presence.h"
#include "data/loader.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "geo/quadtree.h"
#include "geo/spatial_division.h"
#include "geo/time_slots.h"
#include "kern/kern.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsbench {
namespace {

using fs::data::UserPair;

/// Final-graph digests of the presets' own seed (--seed 0), valid only for
/// the toolchain that produced them (see eval::toolchain_fingerprint).
struct Pinned {
  const char* workload;
  const char* digest;
};
constexpr const char* kPinnedToolchain = "12.2.0 glibc-2.36 kern-avx512";
constexpr Pinned kPinned[] = {
    {"attack-sampled", "2dc4264f102042cc"},
    {"attack-full", "b42c8075687cc9de"},
};

constexpr int kSetupsPerAttack = 10;

struct Inputs {
  fs::eval::BenchPreset preset;
  fs::eval::PairSplit split;
  std::string checkins_path;
  std::string edges_path;
  std::size_t users = 0;
  std::size_t checkins = 0;
};

/// Appends every user pair absent from the sampled split to the test list:
/// the full pair universe an unconstrained attacker scores. Quality is
/// still graded on the labeled prefix.
void extend_to_full_universe(fs::eval::PairSplit& split, std::size_t users) {
  std::vector<UserPair> known;
  for (const auto* list : {&split.train_pairs, &split.test_pairs})
    for (const UserPair& p : *list)
      known.push_back(fs::data::make_pair_ordered(p.first, p.second));
  std::sort(known.begin(), known.end());
  const auto n = static_cast<fs::data::UserId>(users);
  for (fs::data::UserId a = 0; a < n; ++a)
    for (fs::data::UserId b = a + 1; b < n; ++b) {
      const UserPair pair{a, b};
      if (!std::binary_search(known.begin(), known.end(), pair))
        split.test_pairs.push_back(pair);
    }
}

Inputs set_up(const Options& options, bool full_universe, bool small) {
  Inputs in;
  in.preset = fs::eval::bench_preset(small ? "tiny" : "gowalla");
  in.preset.seeker.seed += options.seed;
  // Phase 2 runs all of the preset's iterations instead of stopping at
  // convergence: splits from different seeds converge after 3 to 5
  // iterations, and that count alone moved attack time by a third across
  // seeds. A fixed iteration count makes every seed do the same work.
  in.preset.seeker.convergence_threshold = 0.0;
  fs::eval::Experiment experiment = fs::eval::make_experiment(
      in.preset.world, {}, 0.7, 7 + options.seed);
  in.users = experiment.dataset.user_count();
  in.checkins = experiment.dataset.checkin_count();
  if (full_universe) extend_to_full_universe(experiment.split, in.users);
  in.split = std::move(experiment.split);
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / "attack";
  std::filesystem::create_directories(dir);
  in.checkins_path = (dir / "checkins.txt").string();
  in.edges_path = (dir / "edges.txt").string();
  fs::data::save_checkins_snap(experiment.dataset, in.checkins_path,
                               in.edges_path);
  return in;
}

struct Attack {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double f1 = 0.0;
  std::string digest;
  std::string problem;  // non-empty: the repetition failed
  std::size_t estimate_bytes = 0;
  fs::core::FriendSeekerResult result;
};

/// One attack as a user runs it: load, run, predictions.
Attack attack_once(const Inputs& in) {
  Attack out;
  fs::runtime::ExecutionContext context;
  const double t0 = now_seconds();
  const double cpu0 = process_cpu_seconds();
  try {
    const fs::data::Dataset dataset =
        fs::data::load_checkins_snap(in.checkins_path, in.edges_path);
    if (dataset.user_count() != in.users ||
        dataset.checkin_count() != in.checkins)
      throw std::runtime_error("SNAP round trip changed the dataset");
    fs::core::FriendSeekerConfig config = in.preset.seeker;
    config.context = &context;
    fs::core::FriendSeeker seeker(config);
    out.result = seeker.run(dataset, in.split.train_pairs,
                            in.split.train_labels, in.split.test_pairs);
    const std::size_t graded = in.split.test_labels.size();
    if (out.result.test_predictions.size() != in.split.test_pairs.size())
      throw std::runtime_error("prediction count != test pair count");
    const std::vector<int> predictions(
        out.result.test_predictions.begin(),
        out.result.test_predictions.begin() +
            static_cast<std::ptrdiff_t>(graded));
    out.f1 = fs::ml::prf(in.split.test_labels, predictions).f1;
  } catch (const std::exception& e) {
    out.problem = std::string("attack threw: ") + e.what();
  }
  out.wall_s = now_seconds() - t0;
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.estimate_bytes = context.peak_charged();
  if (!out.problem.empty()) return out;
  out.digest = fs::eval::graph_digest(out.result.final_graph);
  // Hitting the iteration cap is the normal end of an unconverged run;
  // anything else the run gave up (deadline, memory, fallback) is degraded.
  if (out.result.fell_back_to_phase1)
    out.problem = "phase 2 diverged; result fell back to phase 1";
  for (const auto& phase : out.result.degradation.phases)
    if (phase.reason != "iterations")
      out.problem = "degraded: " + out.result.degradation.to_string();
  return out;
}

/// Checks one repetition against the reference digest and the pinned one.
void check(Report& report, Attack& attack, const std::string& reference,
           const char* pinned, const std::string& label) {
  ++report.attempted;
  if (faults().corrupt_digest && label == "repetition 2" &&
      !attack.digest.empty())
    attack.digest[0] = attack.digest[0] == '0' ? '1' : '0';
  std::string problem = attack.problem;
  if (problem.empty() && !reference.empty() && attack.digest != reference)
    problem = "final-graph digest " + attack.digest + " != " + reference;
  if (problem.empty() && pinned != nullptr && attack.digest != pinned)
    problem = "final-graph digest " + attack.digest + " != pinned " + pinned;
  if (!problem.empty()) {
    ++report.failed;
    report.fail(label + ": " + problem);
  }
}

const char* pinned_digest(const Options& options) {
  if (options.seed != 0 || toolchain() != kPinnedToolchain) return nullptr;
  for (const Pinned& p : kPinned)
    if (options.workload == p.workload) return p.digest;
  return nullptr;
}

// ---- traced run ---------------------------------------------------------

/// Span rollup of one traced attack: per-name durations, plus self time
/// per layer (span name up to the first dot) over the calling thread.
/// par.* spans are transparent — a chunk the caller runs is the work of
/// the region's owner, so its self time goes to the nearest non-par
/// ancestor's layer.
struct Rollup {
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<std::string, double> layer_self_ms;

  double total(const std::string& name) const {
    const auto it = durations_ms.find(name);
    double sum = 0.0;
    if (it != durations_ms.end())
      for (double d : it->second) sum += d;
    return sum;
  }
  std::vector<double> of(const std::string& name) const {
    const auto it = durations_ms.find(name);
    return it == durations_ms.end() ? std::vector<double>{} : it->second;
  }
};

bool is_par(const std::string& name) { return name.rfind("par.", 0) == 0; }

Rollup rollup(const std::vector<fs::obs::TraceEvent>& events,
              const char* root_name) {
  Rollup r;
  const fs::obs::TraceEvent* root = nullptr;
  for (const auto& e : events)
    if (e.phase == 'X' && e.name == root_name) root = &e;
  if (root == nullptr) throw std::runtime_error("traced attack left no span");
  // A span's end (ts + dur) is exact; its start is derived from it. So
  // nesting is rebuilt from end times and per-thread depths: walking spans
  // by descending end, a span's parent is the nearest shallower span still
  // open on the stack.
  const auto end_of = [](const fs::obs::TraceEvent* e) {
    return e->ts_us + e->dur_us;
  };
  const double root_end = end_of(root);
  std::vector<const fs::obs::TraceEvent*> main;
  for (const auto& e : events) {
    if (e.phase != 'X') continue;
    if (!is_par(e.name)) r.durations_ms[e.name].push_back(e.dur_us / 1e3);
    if (e.tid == root->tid && end_of(&e) <= root_end &&
        end_of(&e) >= root_end - root->dur_us)
      main.push_back(&e);
  }
  std::sort(main.begin(), main.end(), [&](const auto* a, const auto* b) {
    return end_of(a) != end_of(b) ? end_of(a) > end_of(b) : a->depth < b->depth;
  });
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(main.size(), kNone);
  std::vector<double> child_us(main.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < main.size(); ++i) {
    while (!stack.empty() && main[stack.back()]->depth >= main[i]->depth)
      stack.pop_back();
    if (!stack.empty()) {
      parent[i] = stack.back();
      child_us[stack.back()] += main[i]->dur_us;
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < main.size(); ++i) {
    std::size_t owner = i;
    while (is_par(main[owner]->name) && parent[owner] != kNone)
      owner = parent[owner];
    const std::string& name = main[owner]->name;
    const std::string layer = main[owner] == root
                                  ? std::string("bench")
                                  : name.substr(0, name.find('.'));
    r.layer_self_ms[layer] += (main[i]->dur_us - child_us[i]) / 1e3;
  }
  return r;
}

/// Median wall ms of `fn` over `reps` calls.
template <typename Fn>
double time_calls(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    fn();
    ms.push_back((now_seconds() - t0) * 1e3);
  }
  return median(ms);
}

/// Times the block, core and kern public calls on the workload's inputs.
void layer_pass(const Inputs& in, Report& report) {
  const fs::data::Dataset dataset =
      fs::data::load_checkins_snap(in.checkins_path, in.edges_path);
  const auto& seeker = in.preset.seeker;
  const fs::geo::QuadtreeDivision quadtree(dataset.poi_coordinates(),
                                           seeker.sigma);
  const fs::geo::QuadtreeDivisionView division(quadtree);
  const fs::geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<fs::geo::Timestamp>(seeker.tau_days *
                                      fs::geo::kSecondsPerDay));
  std::vector<UserPair> universe;
  for (const auto* list : {&in.split.train_pairs, &in.split.test_pairs})
    for (const UserPair& p : *list)
      universe.push_back(fs::data::make_pair_ordered(p.first, p.second));
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());

  const fs::block::CellIndex index(dataset, division, slots);
  report.add("block.cell_index_ms", time_calls(5, [&] {
               const fs::block::CellIndex again(dataset, division, slots);
             }),
             "ms", 5);
  const fs::graph::Graph strong = fs::block::strong_cooccurrence_graph(index);
  report.add("block.strong_graph_ms", time_calls(5, [&] {
               fs::block::strong_cooccurrence_graph(index);
             }),
             "ms", 5);
  report.add("block.filter_ms", time_calls(5, [&] {
               fs::block::filter_universe(index, strong, universe,
                                          seeker.blocking);
             }),
             "ms", 5);

  const fs::core::OccupancyIndex occupancy(dataset, division, slots);
  fs::nn::Matrix train_jocs;
  report.add("core.joc_ms", time_calls(3, [&] {
               train_jocs = fs::core::build_joc_matrix(occupancy,
                                                       in.split.train_pairs);
             }),
             "ms", 3);
  fs::core::PresenceModel model(seeker.presence);
  report.add("core.presence_train_ms", time_calls(1, [&] {
               model.train(train_jocs, in.split.train_labels);
             }),
             "ms", 1);
  const std::vector<UserPair> graded(
      in.split.test_pairs.begin(),
      in.split.test_pairs.begin() +
          static_cast<std::ptrdiff_t>(in.split.test_labels.size()));
  const fs::nn::Matrix test_jocs =
      fs::core::build_joc_matrix(occupancy, graded);
  report.add("core.presence_predict_ms", time_calls(3, [&] {
               model.predict_proba(test_jocs);
             }),
             "ms", 3);

  // The autoencoder's forward GEMMs: one mini-batch through each layer.
  const std::vector<std::size_t> dims =
      fs::core::make_encoder_dims(occupancy.joc_dim(), seeker.presence);
  const std::size_t batch = seeker.presence.batch_size;
  double flops = 0.0, seconds = 0.0;
  std::size_t calls = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::size_t k = dims[l], n = dims[l + 1];
    std::vector<double> a(batch * k, 0.5), b(k * n, 0.25), c(batch * n);
    const double t0 = now_seconds();
    std::size_t reps = 0;
    while (reps < 8 || now_seconds() - t0 < 0.1) {
      fs::kern::gemm_nn(batch, n, k, a.data(), k, b.data(), n, c.data(), n);
      ++reps;
    }
    seconds += now_seconds() - t0;
    flops += 2.0 * static_cast<double>(batch * n * k * reps);
    calls += reps;
  }
  report.add("kern.gemm_gflops", seconds > 0 ? flops / seconds / 1e9 : 0.0,
             "GFLOP/s", calls);
}

std::uint64_t counter_value(const char* name) {
  return fs::obs::metrics().counter(name, {}, "").value();
}

void traced_run(const Options& options, const Inputs& in, Report& report) {
  // The first attack in a process also pays for faulting in its heap;
  // the untraced reference is the second, like the repetitions of the
  // untraced run are mostly warm.
  const char* pinned = pinned_digest(options);
  Attack warm = attack_once(in);
  check(report, warm, "", pinned, "warm-up attack");
  Attack plain = attack_once(in);
  check(report, plain, warm.digest, pinned, "untraced attack");

  fs::obs::set_metrics_enabled(true);
  fs::obs::tracer().clear();
  fs::obs::tracer().enable();
  const std::uint64_t regions0 = counter_value("par.regions_total");
  const std::uint64_t chunks0 = counter_value("par.chunks_total");
  const std::uint64_t stolen0 = counter_value("par.chunks_stolen_total");
  Attack traced;
  {
    fs::obs::Span root("fsbench.attack");
    traced = attack_once(in);
  }
  fs::obs::tracer().disable();
  const double rss_mb = peak_rss_mb();  // before the layer pass allocates
  check(report, traced, plain.digest, pinned, "traced attack");
  const Rollup r = rollup(fs::obs::tracer().events(), "fsbench.attack");
  fs::obs::tracer().clear();

  const auto& res = plain.result;
  const double attack_ms = plain.wall_s * 1e3;
  report.add("data.load_ms", r.total("data.load"), "ms");
  layer_pass(in, report);
  const double universe = static_cast<double>(res.blocking.universe_pairs);
  const double scored = static_cast<double>(res.blocking.scored_pairs);
  report.add("block.universe_pairs", universe, "count");
  report.add("block.scored_pairs", scored, "count");
  report.add("block.prune_ratio", universe > 0 ? scored / universe : 0.0,
             "ratio");
  report.add("block.cache_hit_rate", res.cache.hit_rate(), "ratio");
  report.add("block.cache_mb",
             static_cast<double>(res.cache.bytes) / (1024.0 * 1024.0), "MB");
  report.add("core.phase1_encode_ms", r.total("core.pipeline.phase1.encode"),
             "ms");
  const auto iters = r.of("core.pipeline.phase2.iteration");
  report.add("core.phase2_iter_ms", median(iters), "ms", iters.size());
  report.add("core.phase2_iterations", static_cast<double>(iters.size()),
             "count");
  report.add("nn.ae_ms", r.total("core.presence.autoencoder"), "ms");
  const auto epochs = r.of("nn.ae.epoch");
  report.add("nn.ae_epoch_ms", median(epochs), "ms", epochs.size());
  report.add("ml.knn_fit_ms", r.total("core.presence.knn_fit"), "ms");
  report.add("ml.svm_fit_ms", r.total("ml.svm.fit"), "ms");
  const auto passes = r.of("ml.svm.pass");
  report.add("ml.svm_passes", static_cast<double>(passes.size()), "count");
  report.add("ml.svm_pass_ms", median(passes), "ms", passes.size());
  const double threads = static_cast<double>(options.threads);
  report.add("par.utilization", plain.cpu_s / (plain.wall_s * threads),
             "ratio");
  report.add("par.regions",
             static_cast<double>(counter_value("par.regions_total") - regions0),
             "count");
  report.add("par.chunks",
             static_cast<double>(counter_value("par.chunks_total") - chunks0),
             "count");
  report.add("par.chunks_stolen",
             static_cast<double>(counter_value("par.chunks_stolen_total") -
                                 stolen0),
             "count");
  const double estimate_mb =
      static_cast<double>(plain.estimate_bytes) / (1024.0 * 1024.0);
  report.add("mem.estimate_mb", estimate_mb, "MB");
  report.add("mem.rss_over_estimate",
             estimate_mb > 0 ? rss_mb / estimate_mb : 0.0, "ratio");

  double attributed = 0.0;
  for (const char* layer : {"data", "block", "core", "nn", "ml"}) {
    const auto it = r.layer_self_ms.find(layer);
    const double self = it == r.layer_self_ms.end() ? 0.0 : it->second;
    attributed += self;
    report.add(std::string("self.") + layer + "_ms", self, "ms");
  }
  const auto bench_self = r.layer_self_ms.find("bench");
  report.add("self.bench_ms",
             bench_self == r.layer_self_ms.end() ? 0.0 : bench_self->second,
             "ms");
  report.add("trace.attack_ms", attack_ms, "ms");
  report.add("trace.traced_attack_ms", traced.wall_s * 1e3, "ms");
  report.add("trace.residual_ms", attack_ms - attributed, "ms");
  report.add("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0,
             "ratio");
  std::printf("digest %s\n", plain.digest.c_str());
}

}  // namespace

Report run_attack_workload(const Options& options, bool full_universe) {
  Report report;
  const bool small = options.workload.rfind("self-test", 0) == 0;

  // Set-up is repeated and its median reported, so work moved into it
  // shows. The repetitions are spread over the run (a few before every
  // attack) so the median samples the host over the whole run, not one
  // instant of it; the traced run sets up once.
  std::vector<double> setup_s;
  Inputs in;
  const auto set_up_timed = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const double t0 = now_seconds();
      Inputs next = set_up(options, full_universe, small);
      setup_s.push_back(now_seconds() - t0);
      in = std::move(next);  // freeing the previous inputs is not set-up
    }
  };
  set_up_timed(1);
  std::printf("inputs: %zu users, %zu check-ins, %zu train / %zu test pairs\n",
              in.users, in.checkins, in.split.train_pairs.size(),
              in.split.test_pairs.size());
  if (options.trace) {
    traced_run(options, in, report);
    return report;
  }

  const char* pinned = pinned_digest(options);
  std::vector<double> wall_s;
  std::vector<double> f1s;
  std::string reference;
  const double start = now_seconds();
  while (wall_s.size() < 2 || now_seconds() - start < options.seconds) {
    set_up_timed(kSetupsPerAttack);
    Attack attack = attack_once(in);
    check(report, attack, reference,
          pinned, "repetition " + std::to_string(wall_s.size() + 1));
    if (reference.empty()) reference = attack.digest;
    wall_s.push_back(attack.wall_s);
    f1s.push_back(attack.f1);
  }
  std::printf("digest %s\nrepetitions (s):", reference.c_str());
  for (double w : wall_s) std::printf(" %.3f", w);
  std::printf("\nset-ups (ms):");
  for (double s : setup_s) std::printf(" %.1f", s * 1e3);
  std::printf("\n");
  const double f1 = f1s.front();
  if (std::any_of(f1s.begin(), f1s.end(), [&](double v) { return v != f1; }))
    report.fail("F1 differs across repetitions");

  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("latency_p50_ms", median(wall_s) * 1e3, "ms", wall_s.size());
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("f1", f1, "ratio", f1s.size());
  return report;
}

}  // namespace fsbench
