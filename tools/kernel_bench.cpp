// kernel_bench — fs::kern micro-benchmark. Sweeps the GEMM macro-kernel
// over every ISA path this host supports (pinned per measurement with
// kern::force_path) and writes a machine-readable JSON report: GFLOP/s per
// (path, shape), so kernel regressions show up as a number diff instead of
// a pipeline-level slowdown with no attribution.
//
//   kernel_bench [--out kernel_bench.json] [--threads N] [--min-ms 80]
//                [--quick]
//
// Shapes are the gowalla preset's autoencoder products (encoder
// 1380 -> 320 -> 48, batch 16): the mini-batch forward GEMMs, the
// input-gradient GEMM, the fused SGD-step GEMMs on the two big weight
// matrices, and the corpus-wide encode (m = 3,426 labeled pairs), plus a
// square stress shape. Beside the GEMM sweep, each path also times
// kern::dot_nt_exact, the FMA-free exact dot product of the SVM's RBF
// kernel, on the attack-full phase-2 decision shape (row tiles x ~970
// support vectors x 144 features) and an SMO Gram tile. --quick shrinks
// reps and drops the large shapes for CI smoke.
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

enum class Op { kNn, kNt, kStep };  // kStep: TN with the SGD-step epilogue

struct Shape {
  std::size_t m, n, k;
  Op op;
  const char* what;  // which pipeline product this is
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kNn: return "nn";
    case Op::kNt: return "nt";
    case Op::kStep: return "tn+sgd_step";
  }
  return "?";
}

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
  // Operand storage sizes are the same for every op; only the layout the
  // call declares differs.
  nn::Matrix a(shape.m, shape.k);
  nn::Matrix b(shape.k, shape.n);
  nn::Matrix c(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.normal();

  kern::GemmCall call;
  call.m = shape.m;
  call.n = shape.n;
  call.k = shape.k;
  call.a = a.data();
  call.a_trans = shape.op == Op::kStep;
  call.lda = call.a_trans ? shape.m : shape.k;
  call.b = b.data();
  call.b_trans = shape.op == Op::kNt;
  call.ldb = call.b_trans ? shape.k : shape.n;
  call.c = c.data();
  call.ldc = shape.n;
  if (shape.op == Op::kStep) {
    call.epilogue = kern::Epilogue::kSgdStep;
    call.lr = 1e-9;  // keeps repeated steps far from overflow
  }
  const auto [wall_ms, reps] = measure(min_ms, [&] { kern::gemm(call); });
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["op"] = std::string(op_name(shape.op));
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["k"] = shape.k;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  return entry;
}

struct DotShape {
  std::size_t m, n, k;
  const char* what;
};

json::Object bench_dot_exact(const DotShape& shape, double min_ms,
                             util::Rng& rng) {
  nn::Matrix a(shape.m, shape.k);
  nn::Matrix b(shape.n, shape.k);
  nn::Matrix c(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  // Packing is per call in the SVM too (once per decision or Gram fill),
  // but amortized over every row tile; time the kernel alone.
  const kern::DotPanels panels(shape.n, shape.k, b.data(), shape.k);
  const auto [wall_ms, reps] = measure(min_ms, [&] {
    kern::dot_nt_exact(shape.m, a.data(), shape.k, panels, c.data(),
                       shape.n);
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

  std::vector<Shape> shapes = {
      {16, 320, 1380, Op::kNt, "encoder 1380->320 forward"},
      {16, 1380, 320, Op::kNt, "decoder 320->1380 forward"},
      {16, 320, 1380, Op::kNn, "decoder 320->1380 input gradient"},
      {320, 1380, 16, Op::kStep, "encoder 1380->320 sgd step"},
      {1380, 320, 16, Op::kStep, "decoder 320->1380 sgd step"},
      {256, 256, 256, Op::kNn, "square"},
  };
  std::vector<DotShape> dot_shapes = {
      {32, 970, 144, "svm decision row tile"},
      {32, 500, 144, "svm gram row tile"},
  };
  if (!quick) {
    shapes.push_back({3426, 320, 1380, Op::kNt, "encode (corpus rows)"});
    shapes.push_back({512, 512, 512, Op::kNn, "square-large"});
    dot_shapes.push_back({1024, 970, 144, "svm decision, 1024 rows"});
  }

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
    json::Array dot_exact;
    for (const DotShape& shape : dot_shapes)
      dot_exact.emplace_back(bench_dot_exact(shape, min_ms, rng));
    section["dot_exact"] = std::move(dot_exact);
    paths.emplace_back(std::move(section));
  }

  json::Object root;
  root["schema_version"] = 3;
  root["threads"] = par::threads();
  root["paths"] = std::move(paths);

  const json::Value report(std::move(root));
  json::write_file(args.get("out"), report, 2);

  // Human-readable recap: peak GFLOP/s per path and kernel.
  for (const json::Value& section : report.at("paths").as_array()) {
    const auto peak = [&](const char* key) {
      double best = 0.0;
      for (const json::Value& entry : section.at(key).as_array())
        best = std::max(best, entry.at("gflops").as_number());
      return best;
    };
    std::printf("%-7s peak %.2f GFLOP/s gemm, %.2f GFLOP/s dot_exact\n",
                section.at("path").as_string().c_str(), peak("gemm"),
                peak("dot_exact"));
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
