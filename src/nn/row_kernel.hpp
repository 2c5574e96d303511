// Internal interface between the nn GEMMs (matrix.cpp) and the per-ISA row
// kernels (row_kernel_<isa>.cpp). Not part of the public API — include
// nn/matrix.hpp instead.
//
// A row kernel accumulates a weighted sum of rows into one output row:
//
//   out[j] += val[0] * rows[0][j] + val[1] * rows[1][j] + ...   j in [0, n)
//
// strictly term by term in t order, each step one IEEE multiply then one
// IEEE add (never fused). Every out[j] is its own chain, so vector width
// and column tiling only decide which chains share a register — never any
// chain's op order — and every target is bit-exact with the plain loop
// `for t: for j: out[j] += val[t] * rows[t][j]`. All three GEMMs reduce to
// this call once matrix.cpp has gathered a row's terms.
#pragma once

#include <cstddef>

#include "common/kernel_isa.hpp"

namespace de::nn::detail {

using RowKernelFn = void (*)(float* out, std::size_t n, const float* const* rows,
                             const float* val, std::size_t count);

/// Per-ISA bodies; nullptr when the target was not compiled in. The
/// generic body also serves kSse2: it is the plain loop above, which the
/// compiler vectorises for the SSE2 baseline on its own.
extern const RowKernelFn kRowKernelAvx2;
extern const RowKernelFn kRowKernelAvx512;

/// The body `isa` (kAuto: the process default) runs; throws unless that
/// target is supported on this host.
RowKernelFn row_kernel(KernelIsa isa);

}  // namespace de::nn::detail
