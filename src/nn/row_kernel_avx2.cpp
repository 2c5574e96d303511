// AVX2 row kernel: 8-lane ymm accumulators, the tile's last vector masked
// with vmaskmovps. Deliberately mul+add, NOT vfmadd — an FMA rounds a*b+c
// once where the reference rounds the product and the sum separately.
//
// This TU is the only nn file compiled with -mavx2 (see CMakeLists); it must
// stay behind runtime dispatch — nothing here may run unless
// kernel_isa_supported(KernelIsa::kAvx2). Everything it instantiates has
// internal linkage, so no AVX2 copy of a shared inline function can leak to
// other TUs.
#include <cstddef>

#include "nn/row_kernel.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "nn/row_band.inl"

namespace de::nn::detail {
namespace {

struct Avx2Traits {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr std::size_t kLanes = 8;

  static Mask head(std::size_t lanes) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec set1(float x) { return _mm256_set1_ps(x); }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Mask m, Vec v) { _mm256_maskstore_ps(p, m, v); }
  static Vec madd(Vec acc, Vec a, Vec x) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, x));
  }
};

}  // namespace

const RowKernelFn kRowKernelAvx2 = &row_kernel_t<Avx2Traits>;

}  // namespace de::nn::detail

#else  // !__AVX2__

namespace de::nn::detail {
const RowKernelFn kRowKernelAvx2 = nullptr;
}

#endif
