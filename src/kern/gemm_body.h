// Shared cache-blocked GEMM driver, templated over an Arch policy.
//
// Each per-ISA translation unit instantiates run_gemm<Arch> (inside an
// anonymous namespace) with a policy providing:
//
//   static constexpr std::size_t kMr, kNr;   // register tile shape
//   static void micro_kernel(std::size_t kc, const double* ap,
//                            const double* bp, double* acc);
//       // acc[kMr*kNr] = sum_{p<kc} ap[p*kMr+i] * bp[p*kNr+j], overwriting
//
// Blocking follows the BLIS decomposition, parallelised over one tile grid
// per call: C is cut into (row group x column group) tiles and every tile
// is one fs::par chunk that packs its own NR-wide B panels per KC block and
// its own MR-tall A panels per MC block. The grid is a pure function of
// the shape (m, n, k) and the Arch's MR/NR, so the fs::par determinism
// contract (chunks independent of thread count) makes output bits
// thread-count-invariant for a fixed Arch; since every C element belongs
// to one tile and accumulates over the same KC blocks in order, the grid
// never touches the bits at all. Short products (few MC row blocks) keep
// one row group per MC block and narrow the column groups until the grid
// reaches kMinTiles, so a 16-row mini-batch product still spreads across
// the pool (BLIS parallelises the JC/JR loops for small m for the same
// reason); tall products split their rows into kMinTiles equal groups,
// each packing B once per KC block; products too small to repay a
// fork-join stay one tile. Edge tiles are zero-padded during packing, so
// the micro-kernel always runs a full MR x NR tile and writeback clips.
//
// Epilogues fuse into tile writeback on the LAST KC block: by then the
// tile holds its complete k-accumulation, so bias+activation costs no
// extra pass over C. The SGD-step epilogue keeps the partial KC sums in
// tile-local scratch instead of C (C holds the weights being stepped).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "kern/kern.h"
#include "kern/kern_internal.h"
#include "par/par.h"

namespace fs::kern::detail {

// Blocking parameters in doubles: a KC-deep A strip streams from L1, the
// packed MC x KC A block (~192 KiB) targets L2, the packed KC x NC B block
// (~1 MiB) targets L3.
inline constexpr std::size_t kKc = 256;
inline constexpr std::size_t kMc = 96;
inline constexpr std::size_t kNc = 512;
// Tiles the grid aims for (tall products get exactly this many row
// groups, short ones narrow their column groups down to one NR panel). A
// shape constant, never a thread count; 16 balances evenly over 1, 2, 4,
// 8 or 16 threads.
inline constexpr std::size_t kMinTiles = 16;
// Multiply-adds a tile must keep before the grid splits further: below it
// a fork-join costs more than the tile, so tiny products run as one tile
// (inline on the caller, like every one-chunk fs::par region).
inline constexpr std::size_t kTileWork = std::size_t{1} << 17;

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// The (row group x column group) decomposition of an m x n product.
struct TileGrid {
  std::size_t row_groups = 0;
  std::size_t group_rows = 0;  // a multiple of MR
  std::size_t col_groups = 0;
  std::size_t group_cols = 0;  // a multiple of NR, at most kNc
};

template <std::size_t MR, std::size_t NR>
TileGrid tile_grid(std::size_t m, std::size_t n, std::size_t k) {
  TileGrid grid;
  const std::size_t tiles =
      std::clamp<std::size_t>(m * n * k / kTileWork, 1, kMinTiles);
  if (m >= tiles * kMc / 2) {
    // Tall: `tiles` equal row groups of whole columns, each packing B once
    // per KC block for all its MC blocks.
    grid.group_rows = ceil_div(ceil_div(m, tiles), MR) * MR;
    grid.row_groups = ceil_div(m, grid.group_rows);
    grid.group_cols = std::min(ceil_div(n, NR) * NR, kNc);
  } else {
    // Short: one row group per MC block; the columns split into NR-panel
    // groups until the grid reaches `tiles`.
    grid.group_rows = kMc;
    grid.row_groups = ceil_div(m, kMc);
    const std::size_t panels = ceil_div(n, NR);
    const std::size_t want_groups =
        std::min(panels, ceil_div(tiles, grid.row_groups));
    grid.group_cols =
        std::min(ceil_div(panels, want_groups) * NR, kNc);
  }
  grid.col_groups = ceil_div(n, grid.group_cols);
  return grid;
}

/// Logical A(i, p) of the m x k operand, whichever way it is stored.
inline double load_a(const GemmCall& call, std::size_t i, std::size_t p) {
  return call.a_trans ? call.a[p * call.lda + i] : call.a[i * call.lda + p];
}

/// Logical B(p, j) of the k x n operand.
inline double load_b(const GemmCall& call, std::size_t p, std::size_t j) {
  return call.b_trans ? call.b[j * call.ldb + p] : call.b[p * call.ldb + j];
}

template <std::size_t MR>
inline void pack_a_block(const GemmCall& call, std::size_t ic, std::size_t mc,
                         std::size_t pc, std::size_t kc, double* ap) {
  std::size_t panel = 0;
  for (std::size_t ir = 0; ir < mc; ir += MR, ++panel) {
    double* dst = ap + panel * kc * MR;
    const std::size_t mr = std::min(MR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t ii = 0; ii < MR; ++ii)
        dst[p * MR + ii] =
            ii < mr ? load_a(call, ic + ir + ii, pc + p) : 0.0;
  }
}

template <std::size_t NR>
inline void pack_b_block(const GemmCall& call, std::size_t jc, std::size_t nc,
                         std::size_t pc, std::size_t kc, double* bp) {
  std::size_t panel = 0;
  for (std::size_t jr = 0; jr < nc; jr += NR, ++panel) {
    double* dst = bp + panel * kc * NR;
    const std::size_t nr = std::min(NR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p)
      for (std::size_t jj = 0; jj < NR; ++jj)
        dst[p * NR + jj] =
            jj < nr ? load_b(call, pc + p, jc + jr + jj) : 0.0;
  }
}

/// Bias + activation on one finished accumulator value. Sigmoid/tanh go
/// through libm on every path, so epilogue bits never depend on the ISA.
/// kSgdStep never reaches here (step_tile and epilogue_only handle it).
inline double apply_epilogue(Epilogue epilogue, double v, double bias) {
  switch (epilogue) {
    case Epilogue::kNone:
    case Epilogue::kSgdStep:
      return v;
    case Epilogue::kBias:
      return v + bias;
    case Epilogue::kBiasRelu:
      v += bias;
      return v > 0.0 ? v : 0.0;
    case Epilogue::kBiasSigmoid:
      v += bias;
      return 1.0 / (1.0 + std::exp(-v));
    case Epilogue::kBiasTanh:
      v += bias;
      return std::tanh(v);
  }
  return v;
}

template <std::size_t MR, std::size_t NR>
inline void write_tile(const GemmCall& call, std::size_t i0, std::size_t mr,
                       std::size_t j0, std::size_t nr, const double* acc,
                       bool first_pc, bool last_pc) {
  const bool accumulate = call.accumulate || !first_pc;
  const bool epi = last_pc && call.epilogue != Epilogue::kNone;
  for (std::size_t i = 0; i < mr; ++i) {
    double* crow = call.c + (i0 + i) * call.ldc + j0;
    for (std::size_t j = 0; j < nr; ++j) {
      double v = acc[i * NR + j];
      if (accumulate) v += crow[j];
      if (epi) v = apply_epilogue(call.epilogue, v, call.bias[j0 + j]);
      crow[j] = v;
    }
  }
}

/// kSgdStep writeback. The gradient g is built exactly as accumulating
/// into a zeroed buffer would: acc + 0.0 on the first KC block, acc + g on
/// later ones, parked in the tile-local `partial` block (leading dimension
/// `ldp`, unused when k fits one KC block) until the last block steps
/// C <- C - lr * g.
template <std::size_t MR, std::size_t NR>
inline void step_tile(const GemmCall& call, std::size_t i0, std::size_t mr,
                      std::size_t j0, std::size_t nr, const double* acc,
                      bool first_pc, bool last_pc, double* partial,
                      std::size_t ldp) {
  for (std::size_t i = 0; i < mr; ++i) {
    double* crow = call.c + (i0 + i) * call.ldc + j0;
    for (std::size_t j = 0; j < nr; ++j) {
      double g = acc[i * NR + j];
      g += first_pc ? 0.0 : partial[i * ldp + j];
      if (last_pc)
        crow[j] -= call.lr * g;
      else
        partial[i * ldp + j] = g;
    }
  }
}

/// k == 0 degenerates to an epilogue-only sweep: C = epilogue(C or 0), and
/// a step with a zero gradient.
inline void epilogue_only(const GemmCall& call) {
  for (std::size_t i = 0; i < call.m; ++i) {
    double* crow = call.c + i * call.ldc;
    for (std::size_t j = 0; j < call.n; ++j) {
      if (call.epilogue == Epilogue::kSgdStep) {
        crow[j] -= call.lr * 0.0;
        continue;
      }
      double v = call.accumulate ? crow[j] : 0.0;
      if (call.epilogue != Epilogue::kNone)
        v = apply_epilogue(call.epilogue, v, call.bias[j]);
      crow[j] = v;
    }
  }
}

template <typename Arch>
void run_gemm(const GemmCall& call) {
  constexpr std::size_t MR = Arch::kMr;
  constexpr std::size_t NR = Arch::kNr;
  if (call.m == 0 || call.n == 0) return;
  if (call.k == 0) {
    epilogue_only(call);
    return;
  }

  const TileGrid grid = tile_grid<MR, NR>(call.m, call.n, call.k);
  const bool step = call.epilogue == Epilogue::kSgdStep;
  const std::size_t kc_max = std::min(kKc, call.k);
  par::ParallelOptions options;
  options.what = "kern.gemm";
  options.grain = 1;  // one chunk per tile — never thread-derived

  par::parallel_for(
      grid.row_groups * grid.col_groups, options, [&](std::size_t tile) {
        const std::size_t ig = tile / grid.col_groups * grid.group_rows;
        const std::size_t mg = std::min(grid.group_rows, call.m - ig);
        const std::size_t jc = tile % grid.col_groups * grid.group_cols;
        const std::size_t nc = std::min(grid.group_cols, call.n - jc);
        double* ap = pack_scratch_a(std::min(kMc, ceil_div(mg, MR) * MR) *
                                    kc_max);
        double* bp = pack_scratch_b(ceil_div(nc, NR) * NR * kc_max);
        // Step partials are needed only when k spans several KC blocks.
        const bool partials = step && call.k > kKc;
        double* partial = partials ? tile_scratch(mg * nc) : nullptr;
        alignas(64) double acc[MR * NR];
        for (std::size_t pc = 0; pc < call.k; pc += kKc) {
          const std::size_t kc = std::min(kKc, call.k - pc);
          const bool first_pc = pc == 0;
          const bool last_pc = pc + kc == call.k;
          pack_b_block<NR>(call, jc, nc, pc, kc, bp);
          for (std::size_t ic = ig; ic < ig + mg; ic += kMc) {
            const std::size_t mc = std::min(kMc, ig + mg - ic);
            pack_a_block<MR>(call, ic, mc, pc, kc, ap);
            for (std::size_t jr = 0; jr < nc; jr += NR) {
              const double* bpanel = bp + (jr / NR) * kc * NR;
              const std::size_t nr = std::min(NR, nc - jr);
              for (std::size_t ir = 0; ir < mc; ir += MR) {
                Arch::micro_kernel(kc, ap + (ir / MR) * kc * MR, bpanel, acc);
                const std::size_t i0 = ic + ir;
                const std::size_t mr = std::min(MR, mc - ir);
                if (step)
                  step_tile<MR, NR>(
                      call, i0, mr, jc + jr, nr, acc, first_pc, last_pc,
                      partials ? partial + (i0 - ig) * nc + jr : nullptr, nc);
                else
                  write_tile<MR, NR>(call, i0, mr, jc + jr, nr, acc,
                                     first_pc, last_pc);
              }
            }
          }
        }
      });
}

}  // namespace fs::kern::detail
