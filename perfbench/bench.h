// Shared pieces of the fsbench benchmark: run options, the metric report
// every workload fills, sample statistics, and process resource readings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;  // scratch for SNAP files and the serve journal
  std::size_t threads = 1;
};

/// One named figure. `samples` is how many measurements the value
/// summarizes (1 for counts and single measurements).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload run hands back to main(): the output-check tally and
/// every figure the run measured, each added once. main() puts the ones in
/// the mode's metric set (end-to-end untraced, per-layer traced) in the
/// JSON line and prints the rest as headline lines.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  /// Adds the q-quantile of `samples` when at least ten samples lie beyond
  /// it, and 0 otherwise: a tail with less support is not reported.
  void add_tail(const std::string& name, const std::vector<double>& samples,
                double q, const std::string& unit);
};

/// Nearest-rank-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);

/// True when at least ten samples lie beyond the q-quantile — the rule for
/// reporting a tail percentile at all.
bool tail_supported(std::size_t samples, double q);

/// Process user+system CPU seconds (all threads) from getrusage.
double process_cpu_seconds();
/// Process max RSS in MB from getrusage.
double peak_rss_mb();
/// Monotonic seconds.
double now_seconds();

/// Host and build fingerprint; results are comparable only when equal.
std::string fingerprint_json(std::size_t threads);
/// The toolchain part alone (compiler + libc + kernel ISA path), matching
/// eval::toolchain_fingerprint so pinned digests follow the golden tests.
std::string toolchain();

// Workload entry points. Each returns the filled report; exceptions escape
// only for setup failures (bad arguments, unwritable work dir).
Report run_attack_workload(const Options& options, bool full_universe);
Report run_serve_workload(const Options& options);

/// Fault injections for --self-test: each must turn into a counted failure.
struct Faults {
  bool corrupt_digest = false;  // attack: one repetition's digest altered
  bool withhold_ack = false;    // serve: one durable ack ignored
};
Faults& faults();

}  // namespace fsbench
