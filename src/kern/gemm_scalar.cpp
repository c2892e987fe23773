// Portable scalar path — the golden reference every vector path is
// measured against. This TU is compiled with -ffp-contract=off so the
// compiler can never fuse the multiply-add below into an FMA: the
// reference semantics are exactly "round after multiply, round after add"
// in ascending-k order, on any host. Its dot_nt_exact tile is the plain
// sequential loop itself, one accumulator per (row, panel lane).
#include <cstddef>

#include "kern/dot_body.h"
#include "kern/gemm_body.h"
#include "kern/kern_internal.h"

namespace fs::kern::detail {

namespace {

struct ScalarArch {
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kNr = 4;

  static void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                           double* acc) {
    double local[kMr * kNr] = {};
    for (std::size_t p = 0; p < kc; ++p) {
      const double* arow = ap + p * kMr;
      const double* brow = bp + p * kNr;
      for (std::size_t i = 0; i < kMr; ++i) {
        const double a = arow[i];
        for (std::size_t j = 0; j < kNr; ++j)
          local[i * kNr + j] += a * brow[j];
      }
    }
    for (std::size_t v = 0; v < kMr * kNr; ++v) acc[v] = local[v];
  }

  static constexpr std::size_t kDotMr = 4;

  template <std::size_t R>
  static void dot_tile(std::size_t k, const double* a, std::size_t lda,
                       const double* panel, double* acc) {
    double local[R][kDotPanel] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const double* col = panel + p * kDotPanel;
      for (std::size_t r = 0; r < R; ++r) {
        const double x = a[r * lda + p];
        for (std::size_t j = 0; j < kDotPanel; ++j) local[r][j] += x * col[j];
      }
    }
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t j = 0; j < kDotPanel; ++j)
        acc[r * kDotPanel + j] = local[r][j];
  }
};

void gemm_entry(const GemmCall& call) { run_gemm<ScalarArch>(call); }

void dot_entry(std::size_t m, const double* a, std::size_t lda,
               const double* panels, std::size_t n, std::size_t k, double* c,
               std::size_t ldc) {
  run_dot<ScalarArch>(m, a, lda, panels, n, k, c, ldc);
}

}  // namespace

const VTable* vtable_scalar() {
  static const VTable table{&gemm_entry, &dot_entry};
  return &table;
}

}  // namespace fs::kern::detail
