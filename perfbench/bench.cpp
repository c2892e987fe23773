// fsbench — the repository benchmark. One process runs one workload on
// inputs generated from --seed and prints every metric by name, unit and
// sample count, then one JSON result line:
//
//   fsbench --workload attack-sampled|attack-full|serve-feed --seed N
//           --seconds S --trace 0|1 --work-dir DIR
//   fsbench --self-test --work-dir DIR
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 is the
// separate traced run that reports the per-layer metrics. Exit status is 0
// only when every output check passed and no operation failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "eval/digest.h"
#include "kern/kern.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/logging.h"

namespace fsbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

bool tail_supported(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

void Report::add_tail(const std::string& name,
                      const std::vector<double>& samples, double q,
                      const std::string& unit) {
  add(name, tail_supported(samples.size(), q) ? quantile(samples, q) : 0.0,
      unit, samples.size());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string toolchain() { return fs::eval::toolchain_fingerprint(); }

std::string fingerprint_json(std::size_t threads) {
  std::ostringstream oss;
  oss << "{\"nproc\": " << std::max(1u, std::thread::hardware_concurrency())
      << ", \"threads\": " << threads << ", \"kern_path\": \""
      << fs::kern::path_name(fs::kern::active_path())
      << "\", \"compiler\": \"" << FSBENCH_COMPILER
      << "\", \"build_type\": \"" << FSBENCH_BUILD_TYPE
      << "\", \"toolchain\": \"" << toolchain() << "\"}";
  return oss.str();
}

Faults& faults() {
  static Faults instance;
  return instance;
}

namespace {

/// Debug and sanitizer builds time something other than what users run.
void refuse_unoptimized_build() {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || defined(FSBENCH_SANITIZED)
  throw std::runtime_error(
      "refusing to benchmark a debug or sanitizer build (build type " +
      std::string(FSBENCH_BUILD_TYPE) + ")");
#endif
}

/// Shortest decimal that round-trips, so no measured digit is dropped.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("%s %-28s %16.6f %-8s (n=%zu)\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json. Every workload reports
// every metric of its mode; a layer a workload does not reach reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"f1", "ratio"},
};
constexpr MetricSpec kPerLayer[] = {
    {"data.load_ms", "ms"},
    {"block.cell_index_ms", "ms"},
    {"block.strong_graph_ms", "ms"},
    {"block.filter_ms", "ms"},
    {"block.universe_pairs", "count"},
    {"block.scored_pairs", "count"},
    {"block.prune_ratio", "ratio"},
    {"block.cache_hit_rate", "ratio"},
    {"block.cache_mb", "MB"},
    {"core.joc_ms", "ms"},
    {"core.presence_train_ms", "ms"},
    {"core.presence_predict_ms", "ms"},
    {"core.phase1_encode_ms", "ms"},
    {"core.phase2_iter_ms", "ms"},
    {"core.phase2_iterations", "count"},
    {"nn.ae_ms", "ms"},
    {"nn.ae_epoch_ms", "ms"},
    {"kern.gemm_gflops", "GFLOP/s"},
    {"ml.knn_fit_ms", "ms"},
    {"ml.svm_fit_ms", "ms"},
    {"ml.svm_passes", "count"},
    {"ml.svm_pass_ms", "ms"},
    {"par.utilization", "ratio"},
    {"par.regions", "count"},
    {"par.chunks", "count"},
    {"par.chunks_stolen", "count"},
    {"mem.estimate_mb", "MB"},
    {"mem.rss_over_estimate", "ratio"},
    {"self.data_ms", "ms"},
    {"self.block_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.nn_ms", "ms"},
    {"self.ml_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"trace.attack_ms", "ms"},
    {"trace.traced_attack_ms", "ms"},
    {"trace.residual_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"serve.ingest_eps", "events/s"},
    {"serve.ack_p99_ms", "ms"},
    {"serve.staleness_p99_ms", "ms"},
    {"stream.tick_p50_ms", "ms"},
    {"stream.tick_p99_ms", "ms"},
    {"stream.ticks", "count"},
    {"stream.dirty_max", "count"},
    {"stream.ring_max", "count"},
    {"stream.blocked_polls", "count"},
    {"stream.deadline_hits", "count"},
    {"stream.journal_sync_p50_ms", "ms"},
    {"stream.journal_sync_p99_ms", "ms"},
    {"stream.journal_syncs", "count"},
    {"net.frames", "count"},
    {"net.frames_rejected", "count"},
    {"net.commits_acked", "count"},
    {"net.send_lag_p99_ms", "ms"},
    {"net.scrape_p50_ms", "ms"},
};

// Figures printed as headline lines only: a workload's own end-to-end
// names that have no place in the JSON set.
constexpr MetricSpec kHeadlineOnly[] = {
    {"ingest_eps", "events/s"},
    {"ack_p99_ms", "ms"},
    {"staleness_p99_ms", "ms"},
};

/// The name each workload gives its latency_p50_ms, printed as a headline
/// line beside it.
struct Alias {
  const char* workload_prefix;
  const char* name;
  double scale;
  const char* unit;
};
constexpr Alias kLatencyAliases[] = {
    {"attack", "attack_s", 1e-3, "s"},
    {"serve", "ack_p50_ms", 1.0, "ms"},
};

template <std::size_t N>
const MetricSpec* find_spec(const std::string& name,
                            const MetricSpec (&specs)[N]) {
  for (const MetricSpec& spec : specs)
    if (name == spec.name) return &spec;
  return nullptr;
}

/// Splits the reported figures into the mode's metric set, in canonical
/// order with 0 for metrics the workload does not reach, and the headline
/// figures. A name or unit outside both is a bug in the benchmark, not a
/// measurement.
template <std::size_t N>
void split_metrics(const std::vector<Metric>& reported,
                   const MetricSpec (&specs)[N], std::vector<Metric>& json,
                   std::vector<Metric>& headline) {
  json.clear();
  for (const MetricSpec& spec : specs)
    json.push_back({spec.name, 0.0, spec.unit, 0});
  for (const Metric& m : reported) {
    const MetricSpec* spec = find_spec(m.name, specs);
    const MetricSpec* only = find_spec(m.name, kHeadlineOnly);
    if (spec == nullptr && only == nullptr)
      throw std::logic_error("metric " + m.name +
                             " is not in the benchmark's metric set");
    if (m.unit != (spec != nullptr ? spec->unit : only->unit))
      throw std::logic_error("metric " + m.name + " has unit " + m.unit);
    if (spec == nullptr) {
      headline.push_back(m);
      continue;
    }
    json[static_cast<std::size_t>(spec - specs)] = m;
  }
}

std::string result_line(const Report& report,
                        const std::vector<Metric>& metrics) {
  std::ostringstream oss;
  oss << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(1, report.attempted)
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    oss << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  oss << "}}";
  return oss.str();
}

int emit(const Options& options, const Report& report) {
  std::vector<Metric> json, headline;
  if (options.trace)
    split_metrics(report.metrics, kPerLayer, json, headline);
  else
    split_metrics(report.metrics, kEndToEnd, json, headline);
  if (!options.trace) {
    const Metric& latency = *std::find_if(
        json.begin(), json.end(),
        [](const Metric& m) { return m.name == "latency_p50_ms"; });
    for (const Alias& alias : kLatencyAliases)
      if (options.workload.rfind(alias.workload_prefix, 0) == 0)
        headline.push_back({alias.name, latency.value * alias.scale,
                            alias.unit, latency.samples});
  }
  headline.push_back(
      {"ops_failed_frac",
       static_cast<double>(report.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
       "ratio", report.attempted});
  std::printf("fingerprint %s\n", fingerprint_json(options.threads).c_str());
  for (const Metric& m : json)
    print_metric(options.trace ? "layer" : "metric", m);
  for (const Metric& m : headline) print_metric("headline", m);
  for (const std::string& p : report.problems)
    std::printf("check FAILED: %s\n", p.c_str());
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("%s\n", result_line(report, json).c_str());
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}

/// Runs each workload on small inputs with one fault injected and checks
/// the fault is counted: a corrupted final-graph digest must fail its
/// repetition, a withheld durable ack must fail its commit.
int self_test(Options options) {
  options.seconds = 1.0;
  options.trace = false;
  int bad = 0;
  const auto expect = [&bad](const char* what, const Report& r) {
    const bool counted = r.failed >= 1 && !r.correct;
    std::printf("self-test %-16s failed=%llu correct=%s -> %s\n", what,
                static_cast<unsigned long long>(r.failed),
                r.correct ? "true" : "false", counted ? "counted" : "MISSED");
    if (!counted) ++bad;
  };

  faults() = Faults{};
  options.workload = "self-test-attack";
  const Report clean_attack = run_attack_workload(options, false);
  if (!clean_attack.correct || clean_attack.failed != 0) {
    std::printf("self-test clean attack run failed\n");
    ++bad;
  }
  faults().corrupt_digest = true;
  expect("corrupt-digest", run_attack_workload(options, false));

  faults() = Faults{};
  options.workload = "self-test-serve";
  const Report clean_serve = run_serve_workload(options);
  if (!clean_serve.correct || clean_serve.failed != 0) {
    std::printf("self-test clean serve run failed\n");
    for (const std::string& p : clean_serve.problems)
      std::printf("  %s\n", p.c_str());
    ++bad;
  }
  faults().withhold_ack = true;
  expect("withheld-ack", run_serve_workload(options));
  faults() = Faults{};
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  using namespace fsbench;
  fs::util::ArgParser args;
  args.add_option("workload", "", "attack-sampled | attack-full | serve-feed");
  args.add_option("seed", "0", "input seed (0 = the presets' own seeds)");
  args.add_option("seconds", "25", "measurement time per run");
  args.add_option("trace", "0", "0 = end-to-end run, 1 = traced run");
  args.add_option("work-dir", "", "scratch directory for generated inputs");
  args.add_flag("self-test", "check that injected faults are counted");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    refuse_unoptimized_build();
    fs::util::set_log_level(fs::util::LogLevel::kWarn);
    Options options;
    options.workload = args.get("workload");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    options.seconds = args.get_double("seconds");
    options.trace = args.get_int("trace") != 0;
    options.work_dir = args.get("work-dir");
    if (options.work_dir.empty())
      throw std::invalid_argument("--work-dir is required");
    if (options.seconds <= 0.0)
      throw std::invalid_argument("--seconds must be positive");
    std::filesystem::create_directories(options.work_dir);
    options.threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    fs::par::set_threads(options.threads);

    if (args.get_flag("self-test")) return self_test(options);
    Report report;
    if (options.workload == "attack-sampled")
      report = run_attack_workload(options, false);
    else if (options.workload == "attack-full")
      report = run_attack_workload(options, true);
    else if (options.workload == "serve-feed")
      report = run_serve_workload(options);
    else
      throw std::invalid_argument("unknown --workload '" + options.workload +
                                  "'");
    return emit(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsbench: %s\n", e.what());
    return 2;
  }
}
