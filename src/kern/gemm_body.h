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
// Blocking follows the BLIS decomposition: B is packed into NR-wide column
// panels per (jc, pc) block by the calling thread; A is packed into
// MR-tall row panels per MC block by whichever worker owns that block. The
// parallel axis is the MC row-block index — a pure function of m, so the
// fs::par determinism contract (chunks independent of thread count) makes
// output bits thread-count-invariant for a fixed Arch. Edge tiles are
// zero-padded during packing, so the micro-kernel always runs a full
// MR x NR tile and writeback clips.
//
// Epilogues fuse into tile writeback on the LAST pc block: by then the
// tile holds its complete k-accumulation (the pc loop is outer to the
// tile loops), so bias+activation costs no extra pass over C.
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
inline double apply_epilogue(Epilogue epilogue, double v, double bias) {
  switch (epilogue) {
    case Epilogue::kNone:
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
                       bool accumulate, bool finish) {
  const bool epi = finish && call.epilogue != Epilogue::kNone;
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

/// k == 0 degenerates to an epilogue-only sweep: C = epilogue(C or 0).
inline void epilogue_only(const GemmCall& call) {
  for (std::size_t i = 0; i < call.m; ++i) {
    double* crow = call.c + i * call.ldc;
    for (std::size_t j = 0; j < call.n; ++j) {
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

  const std::size_t num_ic = (call.m + kMc - 1) / kMc;
  par::ParallelOptions options;
  options.what = "kern.gemm";
  options.grain = 1;  // one chunk per MC row block — never thread-derived

  for (std::size_t jc = 0; jc < call.n; jc += kNc) {
    const std::size_t nc = std::min(kNc, call.n - jc);
    const std::size_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::size_t pc = 0; pc < call.k; pc += kKc) {
      const std::size_t kc = std::min(kKc, call.k - pc);
      const bool last_pc = pc + kc == call.k;
      const bool acc_c = call.accumulate || pc != 0;
      double* bp = pack_scratch_b(nc_padded * kc);
      pack_b_block<NR>(call, jc, nc, pc, kc, bp);
      const auto block_body = [&, bp](std::size_t blk) {
        const std::size_t ic = blk * kMc;
        const std::size_t mc = std::min(kMc, call.m - ic);
        const std::size_t mc_padded = (mc + MR - 1) / MR * MR;
        double* ap = pack_scratch_a(mc_padded * kc);
        pack_a_block<MR>(call, ic, mc, pc, kc, ap);
        alignas(64) double acc[MR * NR];
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          const double* bpanel = bp + (jr / NR) * kc * NR;
          const std::size_t nr = std::min(NR, nc - jr);
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            Arch::micro_kernel(kc, ap + (ir / MR) * kc * MR, bpanel, acc);
            write_tile<MR, NR>(call, ic + ir, std::min(MR, mc - ir), jc + jr,
                               nr, acc, acc_c, last_pc);
          }
        }
      };
      // Mini-batch-sized products (a single MC block) skip the parallel
      // region entirely — same body, same order, none of the fork-join
      // bookkeeping. Identical to what a 1-chunk region would execute.
      if (num_ic == 1)
        block_body(0);
      else
        par::parallel_for(num_ic, options, block_body);
    }
  }
}

}  // namespace fs::kern::detail
