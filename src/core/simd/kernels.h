// Internal declarations of the per-backend kernel tables (src/core/simd).
// The scalar table always exists; the AVX2 table is nullptr when AVX2 is
// not compiled into this build (the MPIPU_NATIVE gate).
// tests/test_simd_kernels.cpp includes this header to pin the vector
// backend against the scalar reference kernel-by-kernel.
#pragma once

#include "core/simd/simd.h"

namespace mpipu::simd {

const KernelTable* scalar_kernel_table();  // never null
const KernelTable* avx2_kernel_table();    // null unless __AVX2__

}  // namespace mpipu::simd
