// Internal seams between the dispatcher (kern.cpp) and the per-ISA
// translation units. Each arch TU is compiled with its own instruction-set
// flags and exposes exactly one symbol: its vtable accessor. Everything
// else in those TUs lives in anonymous namespaces, so template code
// instantiated under -mavx2/-mavx512f can never be ODR-merged into the
// scalar path. All three TUs build with -ffp-contract=off: the only FMAs
// are the vector micro-kernels' intrinsics.
#pragma once

#include <cstddef>

#include "kern/kern.h"

namespace fs::kern::detail {

struct VTable {
  void (*gemm)(const GemmCall& call);
  /// dot_nt_exact over packed panels (see dot_body.h).
  void (*dot_nt_exact)(std::size_t m, const double* a, std::size_t lda,
                       const double* panels, std::size_t n, std::size_t k,
                       double* c, std::size_t ldc);
};

/// Always available; the golden reference.
const VTable* vtable_scalar();
/// Null when the build (not the CPU) lacks the path.
const VTable* vtable_avx2();
const VTable* vtable_avx512();

/// 64-byte-aligned thread-local tile scratch, grown monotonically. Separate
/// arenas because one tile holds an A block, a B block and (for a kSgdStep
/// with k > KC) its partial gradient sums at once.
double* pack_scratch_a(std::size_t count);
double* pack_scratch_b(std::size_t count);
double* tile_scratch(std::size_t count);

}  // namespace fs::kern::detail
