// kernel_bench — fs::kern micro-benchmark. Sweeps the GEMM macro-kernel
// over every ISA path this host supports (pinned per measurement with
// kern::force_path) and writes a machine-readable JSON report: GFLOP/s per
// (path, shape), so kernel regressions show up as a number diff instead of
// a pipeline-level slowdown with no attribution.
//
//   kernel_bench [--out kernel_bench.json] [--threads N] [--min-ms 80]
//                [--quick]
//
// Shapes mirror the pipeline's real products: mini-batch forward/backward
// GEMMs (m = batch), batch encoding (m = corpus rows), and a square
// stress shape. --quick shrinks reps and the shape list for CI smoke.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kern/kern.h"
#include "nn/matrix.h"
#include "obs/json.h"
#include "par/pool.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace fs;
namespace json = obs::json;

struct Shape {
  std::size_t m, n, k;
  const char* what;  // which pipeline product this stands in for
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `body` with rep-doubling until the measured wall clears `min_ms`
/// (one warm-up call first), returning {wall_ms, reps}.
template <typename Body>
std::pair<double, std::size_t> measure(double min_ms, const Body& body) {
  body();  // warm-up: touch pages, resolve dispatch, fill pack scratch
  std::size_t reps = 1;
  for (;;) {
    const double start = now_ms();
    for (std::size_t r = 0; r < reps; ++r) body();
    const double wall = now_ms() - start;
    if (wall >= min_ms || reps >= (1u << 20)) return {wall, reps};
    reps *= 2;
  }
}

json::Object bench_gemm(const Shape& shape, double min_ms, util::Rng& rng) {
  nn::Matrix a(shape.m, shape.k);
  nn::Matrix b(shape.k, shape.n);
  nn::Matrix c(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();

  const auto [wall_ms, reps] = measure(min_ms, [&] {
    kern::gemm_nn(shape.m, shape.n, shape.k, a.data(), shape.k, b.data(),
                  shape.n, c.data(), shape.n);
  });
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["k"] = shape.k;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  return entry;
}

int run(const util::ArgParser& args) {
  par::set_threads(static_cast<std::size_t>(args.get_int("threads")));
  const bool quick = args.get_flag("quick");
  const double min_ms = quick ? 5.0 : args.get_double("min-ms");

  // Stand-ins for the pipeline's actual hot products (tiny/gowalla-sized
  // training batches, corpus-wide encodes) plus one square stress shape.
  std::vector<Shape> shapes = {
      {16, 320, 640, "dense.forward (mini-batch)"},
      {320, 640, 16, "dense.grad_weights (tn)"},
      {800, 48, 320, "encode (corpus rows)"},
      {256, 256, 256, "square"},
  };
  if (!quick) shapes.push_back({512, 512, 512, "square-large"});

  json::Array paths;
  for (const kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    util::Rng rng(20260809);  // same operands for every path
    json::Object section;
    section["path"] = std::string(kern::path_name(path));
    json::Array gemm;
    for (const Shape& shape : shapes)
      gemm.emplace_back(bench_gemm(shape, min_ms, rng));
    section["gemm"] = std::move(gemm);
    paths.emplace_back(std::move(section));
  }

  json::Object root;
  root["schema_version"] = 1;
  root["threads"] = par::threads();
  root["paths"] = std::move(paths);

  const json::Value report(std::move(root));
  json::write_file(args.get("out"), report, 2);

  // Human-readable recap: peak GFLOP/s per path.
  for (const json::Value& section : report.at("paths").as_array()) {
    double best = 0.0;
    for (const json::Value& entry : section.at("gemm").as_array())
      best = std::max(best, entry.at("gflops").as_number());
    std::printf("%-7s peak %.2f GFLOP/s\n",
                section.at("path").as_string().c_str(), best);
  }
  std::printf("wrote %s\n", args.get("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("out", "kernel_bench.json", "JSON report output file");
  args.add_option("threads", "1",
                  "worker threads for the GEMM parallel region (1 gives "
                  "clean per-ISA numbers; results are identical regardless)");
  args.add_option("min-ms", "80",
                  "minimum measured wall per (path, shape); reps double "
                  "until it is reached");
  args.add_flag("quick", "CI smoke: small shapes, short measurements");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_bench: %s\n", e.what());
    return 1;
  }
}
