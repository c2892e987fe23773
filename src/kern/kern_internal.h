// Internal seams between the dispatcher (kern.cpp) and the per-ISA
// translation units. Each arch TU is compiled with its own instruction-set
// flags and exposes exactly one symbol: its vtable accessor. Everything
// else in those TUs lives in anonymous namespaces, so template code
// instantiated under -mavx2/-mavx512f can never be ODR-merged into the
// scalar path (which must stay free of FMA contraction).
#pragma once

#include <cstddef>

#include "kern/kern.h"

namespace fs::kern::detail {

struct VTable {
  void (*gemm)(const GemmCall& call);
};

/// Always available; the golden reference.
const VTable* vtable_scalar();
/// Null when the build (not the CPU) lacks the path.
const VTable* vtable_avx2();
const VTable* vtable_avx512();

/// 64-byte-aligned thread-local pack scratch, grown monotonically. Two
/// separate arenas because one GEMM holds both an A block and a B block.
double* pack_scratch_a(std::size_t count);
double* pack_scratch_b(std::size_t count);

}  // namespace fs::kern::detail
