#include "common/kernel_isa.hpp"

#include <cstdlib>

#include "common/require.hpp"

namespace de {

namespace {

/// Compiled in (DE_X86_ISA_KERNELS: the build gave the per-ISA kernel TUs
/// their -m flags, see CMakeLists) and runnable on this CPU.
bool cpu_supports(KernelIsa isa) {
#if defined(DE_X86_ISA_KERNELS)
  __builtin_cpu_init();
  switch (isa) {
    case KernelIsa::kGeneric: return true;
    case KernelIsa::kSse2: return __builtin_cpu_supports("sse2");
    case KernelIsa::kAvx2: return __builtin_cpu_supports("avx2");
    case KernelIsa::kAvx512: return __builtin_cpu_supports("avx512f");
    case KernelIsa::kAuto: return false;
  }
  return false;
#else
  return isa == KernelIsa::kGeneric;
#endif
}

KernelIsa resolve_default() {
  if (const char* env = std::getenv("DE_KERNEL_ISA")) {
    const KernelIsa forced = kernel_isa_from_string(env);
    if (forced != KernelIsa::kAuto) {  // "auto" keeps the cpuid ladder
      DE_REQUIRE(kernel_isa_supported(forced),
                 std::string("DE_KERNEL_ISA=") + env +
                     " is not supported on this host/build");
      return forced;
    }
  }
  for (const KernelIsa isa :
       {KernelIsa::kAvx512, KernelIsa::kAvx2, KernelIsa::kSse2}) {
    if (kernel_isa_supported(isa)) return isa;
  }
  return KernelIsa::kGeneric;
}

}  // namespace

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto: return "auto";
    case KernelIsa::kGeneric: return "generic";
    case KernelIsa::kSse2: return "sse2";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

KernelIsa kernel_isa_from_string(const std::string& name) {
  if (name == "auto") return KernelIsa::kAuto;
  if (name == "generic") return KernelIsa::kGeneric;
  if (name == "sse2") return KernelIsa::kSse2;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "avx512") return KernelIsa::kAvx512;
  throw Error("unknown kernel ISA: \"" + name +
              "\" (want auto|generic|sse2|avx2|avx512)");
}

bool kernel_isa_supported(KernelIsa isa) {
  return isa != KernelIsa::kAuto && cpu_supports(isa);
}

std::vector<KernelIsa> supported_kernel_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : {KernelIsa::kGeneric, KernelIsa::kSse2,
                              KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

KernelIsa default_kernel_isa() {
  static const KernelIsa latched = resolve_default();
  return latched;
}

KernelIsa resolve_kernel_isa(KernelIsa isa) {
  const KernelIsa resolved = isa == KernelIsa::kAuto ? default_kernel_isa() : isa;
  DE_REQUIRE(kernel_isa_supported(resolved),
             std::string("kernel ISA \"") + to_string(resolved) +
                 "\" is not supported on this host/build");
  return resolved;
}

}  // namespace de
