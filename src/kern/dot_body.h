// Shared tile loop of dot_nt_exact, templated over an Arch policy.
//
// Each per-ISA translation unit instantiates run_dot<Arch> (inside an
// anonymous namespace) with a policy providing:
//
//   static constexpr std::size_t kDotMr;   // A rows per register tile
//   template <std::size_t R>
//   static void dot_tile(std::size_t k, const double* a, std::size_t lda,
//                        const double* panel, double* acc);
//       // acc[r*kDotPanel + j] = sum_{p<k} a[r*lda + p] * panel[p*kDotPanel + j]
//       // for r < R, as the sequential sum from 0.0 with separately
//       // rounded multiplies and adds
//
// run_dot walks B's panels in the outer loop, so one panel (k x 8
// doubles) stays in L1 while the A rows stream past it, and clips the
// zero-padded panel lanes and the short last row tile on writeback. Every
// C entry belongs to exactly one lane of one tile, so the blocking never
// touches the bits.
#pragma once

#include <algorithm>
#include <cstddef>

#include "kern/kern.h"

namespace fs::kern::detail {

template <typename Arch, std::size_t R = Arch::kDotMr>
void dot_rows(std::size_t rows, std::size_t k, const double* a,
              std::size_t lda, const double* panel, double* acc) {
  if constexpr (R > 1) {
    if (rows < R) {
      dot_rows<Arch, R - 1>(rows, k, a, lda, panel, acc);
      return;
    }
  }
  Arch::template dot_tile<R>(k, a, lda, panel, acc);
}

template <typename Arch>
void run_dot(std::size_t m, const double* a, std::size_t lda,
             const double* panels, std::size_t n, std::size_t k, double* c,
             std::size_t ldc) {
  alignas(64) double acc[Arch::kDotMr * kDotPanel];
  for (std::size_t j0 = 0; j0 < n; j0 += kDotPanel) {
    const double* panel = panels + j0 * k;  // j0 / kDotPanel panels of k x 8
    const std::size_t cols = std::min(kDotPanel, n - j0);
    for (std::size_t i0 = 0; i0 < m; i0 += Arch::kDotMr) {
      const std::size_t rows = std::min(Arch::kDotMr, m - i0);
      dot_rows<Arch>(rows, k, a + i0 * lda, lda, panel, acc);
      for (std::size_t r = 0; r < rows; ++r)
        std::copy(acc + r * kDotPanel, acc + r * kDotPanel + cols,
                  c + (i0 + r) * ldc + j0);
    }
  }
}

}  // namespace fs::kern::detail
