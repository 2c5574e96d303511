// Runtime ISA dispatch for the vectorised micro-kernels: the conv bands of
// the fast execution engine (cnn/exec_kernel_*.cpp) and the row kernel
// behind the DDPG networks' GEMMs (nn/row_kernel_*.cpp).
//
// The build compiles one translation unit per instruction-set target
// (generic scalar, SSE2, AVX2, AVX-512) for each kernel; which one actually
// runs is decided once per process, from cpuid, the first time a kernel
// executes. Every target is bit-exact with the scalar reference — lane width
// is a *layout* choice (how many independent accumulator chains ride in one
// vector register), never an arithmetic one, and no target uses fused
// multiply-add (an FMA rounds a*b+c once; the reference rounds twice).
//
// Selection order: AVX-512F > AVX2 > SSE2 > generic, restricted to targets
// both compiled in and supported by the host CPU. `DE_KERNEL_ISA` overrides
// (values as printed by to_string); naming a target the host cannot run is a
// loud error, not a silent fallback — a conformance run forced to "avx512"
// must never quietly measure SSE2. Per-call override via
// cnn::ExecContext::isa; the nn GEMMs always run the process default.
#pragma once

#include <string>
#include <vector>

namespace de {

enum class KernelIsa {
  kAuto,     ///< resolve to default_kernel_isa() at execution time
  kGeneric,  ///< portable scalar lanes (any architecture)
  kSse2,     ///< 4-lane SSE vectors
  kAvx2,     ///< 8-lane ymm (no FMA — bit-exactness)
  kAvx512,   ///< 16-lane zmm (no FMA — bit-exactness)
};

const char* to_string(KernelIsa isa);
/// Parses "auto" / "generic" / "sse2" / "avx2" / "avx512". Throws on unknown.
KernelIsa kernel_isa_from_string(const std::string& name);

/// True when `isa` was compiled into this binary *and* the host CPU can run
/// it. kGeneric is always supported; kAuto is not a concrete target.
bool kernel_isa_supported(KernelIsa isa);

/// All concrete targets this process can execute, slowest first
/// (kGeneric always present). What tests/benches iterate to prove
/// bit-exactness per target.
std::vector<KernelIsa> supported_kernel_isas();

/// The target kAuto resolves to: the best supported one, unless the
/// DE_KERNEL_ISA environment variable names another (checked supported).
/// Resolved once per process on first call and latched.
KernelIsa default_kernel_isa();

/// `isa`, or default_kernel_isa() for kAuto; throws unless the result is
/// supported.
KernelIsa resolve_kernel_isa(KernelIsa isa);

}  // namespace de
