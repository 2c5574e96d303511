// AVX-512F row kernel: 16-lane zmm accumulators, the tile's last vector
// masked with a k-register. Strictly vmulps then vaddps — no FMA, which
// would round a*b+c once where the reference rounds twice.
//
// This TU is the only nn file compiled with -mavx512f (see CMakeLists); it
// must stay behind runtime dispatch — nothing here may run unless
// kernel_isa_supported(KernelIsa::kAvx512). Everything it instantiates has
// internal linkage, so no AVX-512 copy of a shared inline function can leak
// to other TUs.
#include <cstddef>

#include "nn/row_kernel.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

#include "nn/row_band.inl"

namespace de::nn::detail {
namespace {

struct Avx512Traits {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;

  static Mask head(std::size_t lanes) {
    return static_cast<Mask>((1u << lanes) - 1u);
  }
  static Vec set1(float x) { return _mm512_set1_ps(x); }
  static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  static Vec load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Mask m, Vec v) { _mm512_mask_storeu_ps(p, m, v); }
  static Vec madd(Vec acc, Vec a, Vec x) {
    return _mm512_add_ps(acc, _mm512_mul_ps(a, x));
  }
};

}  // namespace

const RowKernelFn kRowKernelAvx512 = &row_kernel_t<Avx512Traits>;

}  // namespace de::nn::detail

#else  // !__AVX512F__

namespace de::nn::detail {
const RowKernelFn kRowKernelAvx512 = nullptr;
}

#endif
