// AVX-512F path: 8x8 register tile of double — one full 512-bit B vector
// per tile column block, eight zmm accumulators, FMA accumulation in
// ascending-k order. Compiled with -mavx512f -mfma on x86-64 builds; on
// any other toolchain the TU degrades to a null vtable.
#include <cstddef>

#include "kern/kern_internal.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "kern/gemm_body.h"

namespace fs::kern::detail {

namespace {

struct Avx512Arch {
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kNr = 8;

  static void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                           double* acc) {
    __m512d c0 = _mm512_setzero_pd(), c1 = _mm512_setzero_pd();
    __m512d c2 = _mm512_setzero_pd(), c3 = _mm512_setzero_pd();
    __m512d c4 = _mm512_setzero_pd(), c5 = _mm512_setzero_pd();
    __m512d c6 = _mm512_setzero_pd(), c7 = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
      // Panel bases and the p-stride (8 doubles) are 64-byte aligned.
      const __m512d b = _mm512_load_pd(bp + p * kNr);
      const double* arow = ap + p * kMr;
      c0 = _mm512_fmadd_pd(_mm512_set1_pd(arow[0]), b, c0);
      c1 = _mm512_fmadd_pd(_mm512_set1_pd(arow[1]), b, c1);
      c2 = _mm512_fmadd_pd(_mm512_set1_pd(arow[2]), b, c2);
      c3 = _mm512_fmadd_pd(_mm512_set1_pd(arow[3]), b, c3);
      c4 = _mm512_fmadd_pd(_mm512_set1_pd(arow[4]), b, c4);
      c5 = _mm512_fmadd_pd(_mm512_set1_pd(arow[5]), b, c5);
      c6 = _mm512_fmadd_pd(_mm512_set1_pd(arow[6]), b, c6);
      c7 = _mm512_fmadd_pd(_mm512_set1_pd(arow[7]), b, c7);
    }
    _mm512_store_pd(acc + 0 * kNr, c0);
    _mm512_store_pd(acc + 1 * kNr, c1);
    _mm512_store_pd(acc + 2 * kNr, c2);
    _mm512_store_pd(acc + 3 * kNr, c3);
    _mm512_store_pd(acc + 4 * kNr, c4);
    _mm512_store_pd(acc + 5 * kNr, c5);
    _mm512_store_pd(acc + 6 * kNr, c6);
    _mm512_store_pd(acc + 7 * kNr, c7);
  }

};

void gemm_entry(const GemmCall& call) { run_gemm<Avx512Arch>(call); }

}  // namespace

const VTable* vtable_avx512() {
  static const VTable table{&gemm_entry};
  return &table;
}

}  // namespace fs::kern::detail

#else  // portable build without AVX-512: path compiled out

namespace fs::kern::detail {

const VTable* vtable_avx512() { return nullptr; }

}  // namespace fs::kern::detail

#endif
