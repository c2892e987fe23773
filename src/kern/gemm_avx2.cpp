// AVX2+FMA path: 4x8 register tile of double (4 rows x two 256-bit
// columns, 8 ymm accumulators), FMA accumulation in ascending-k order.
// Compiled with -mavx2 -mfma on x86-64 builds; on any other toolchain the
// TU degrades to a null vtable and dispatch never selects it.
#include <cstddef>

#include "kern/kern_internal.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kern/gemm_body.h"

namespace fs::kern::detail {

namespace {

struct Avx2Arch {
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kNr = 8;

  static void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                           double* acc) {
    __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
    __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
    __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
    __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
      // Panel bases are 64-byte aligned and strides are multiples of 32
      // bytes, so aligned loads are safe.
      const __m256d b0 = _mm256_load_pd(bp + p * kNr);
      const __m256d b1 = _mm256_load_pd(bp + p * kNr + 4);
      const double* arow = ap + p * kMr;
      __m256d a = _mm256_broadcast_sd(arow + 0);
      c00 = _mm256_fmadd_pd(a, b0, c00);
      c01 = _mm256_fmadd_pd(a, b1, c01);
      a = _mm256_broadcast_sd(arow + 1);
      c10 = _mm256_fmadd_pd(a, b0, c10);
      c11 = _mm256_fmadd_pd(a, b1, c11);
      a = _mm256_broadcast_sd(arow + 2);
      c20 = _mm256_fmadd_pd(a, b0, c20);
      c21 = _mm256_fmadd_pd(a, b1, c21);
      a = _mm256_broadcast_sd(arow + 3);
      c30 = _mm256_fmadd_pd(a, b0, c30);
      c31 = _mm256_fmadd_pd(a, b1, c31);
    }
    _mm256_store_pd(acc + 0 * kNr, c00);
    _mm256_store_pd(acc + 0 * kNr + 4, c01);
    _mm256_store_pd(acc + 1 * kNr, c10);
    _mm256_store_pd(acc + 1 * kNr + 4, c11);
    _mm256_store_pd(acc + 2 * kNr, c20);
    _mm256_store_pd(acc + 2 * kNr + 4, c21);
    _mm256_store_pd(acc + 3 * kNr, c30);
    _mm256_store_pd(acc + 3 * kNr + 4, c31);
  }

};

void gemm_entry(const GemmCall& call) { run_gemm<Avx2Arch>(call); }

}  // namespace

const VTable* vtable_avx2() {
  static const VTable table{&gemm_entry};
  return &table;
}

}  // namespace fs::kern::detail

#else  // portable build without AVX2: path compiled out

namespace fs::kern::detail {

const VTable* vtable_avx2() { return nullptr; }

}  // namespace fs::kern::detail

#endif
