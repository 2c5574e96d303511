// Per-dispatch-target conformance of the nn kernels, memcmp-equal to
// scalar references written in the original summation order (each output
// summed over the inner dimension ascending, from 0, one rounded multiply
// and one rounded add per term; gemm and gemm_at_b skip ±0 factors of `a`,
// gemm_a_bt sums every term as a dot product). The GEMMs run on the
// process's target, which DE_KERNEL_ISA forces (CI runs this suite once per
// target); the row kernel they share is checked on every supported target
// in-process. Widths straddle every vector width and register tile (1, 3,
// 5 — under one vector; 48/64/96/128 — whole tiles; 130 — a tile plus a
// masked tail). Inputs hold exact zeros, -0.0 and infinities, so a
// skipped, added or reordered term shows up as a flipped bit or a NaN.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_isa.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "nn/matrix.hpp"
#include "nn/row_kernel.hpp"

namespace de::nn {
namespace {

const std::vector<std::size_t> kWidths = {1, 3, 5, 48, 64, 96, 128, 130};

/// Uniform in [-1, 1) with ~1/4 exact zeros and ~1/8 negative zeros.
Matrix random_with_zeros(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double u = rng.uniform();
    m.data()[i] = u < 0.25    ? 0.0f
                  : u < 0.375 ? -0.0f
                              : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Sets every 11th entry to +inf or -inf in turn, so a dropped ±0 factor
/// shows as well: 0 * inf is NaN, a skipped term is not.
Matrix with_infinities(Matrix m) {
  for (std::size_t i = 0; i < m.size(); i += 11) {
    m.data()[i] = (i / 11) % 2 == 0 ? std::numeric_limits<float>::infinity()
                                    : -std::numeric_limits<float>::infinity();
  }
  return m;
}

Matrix ref_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(p, j);
    }
  }
  return out;
}

Matrix ref_gemm_at_b(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t p = 0; p < a.rows(); ++p) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = a(p, i);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(p, j);
    }
  }
  return out;
}

Matrix ref_gemm_a_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(j, p);
      out(i, j) = acc;
    }
  }
  return out;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(GemmIsa, EveryVariantIsBitExactOnTheProcessTarget) {
  Rng rng(3);
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}}) {
    for (const std::size_t k : kWidths) {
      for (const std::size_t n : kWidths) {
        SCOPED_TRACE(std::string(to_string(default_kernel_isa())) +
                     " m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        const Matrix a = random_with_zeros(m, k, rng);
        const Matrix b = with_infinities(random_with_zeros(k, n, rng));
        const Matrix at = random_with_zeros(k, m, rng);
        const Matrix bt = with_infinities(random_with_zeros(n, k, rng));
        Matrix out;
        gemm(a, b, out);
        EXPECT_TRUE(same_bits(out, ref_gemm(a, b))) << "gemm";
        gemm_at_b(at, b, out);
        EXPECT_TRUE(same_bits(out, ref_gemm_at_b(at, b))) << "gemm_at_b";
        gemm_a_bt(a, bt, out);
        EXPECT_TRUE(same_bits(out, ref_gemm_a_bt(a, bt))) << "gemm_a_bt";
      }
    }
  }
}

TEST(GemmIsa, RowKernelIsBitExactOnEverySupportedTarget) {
  Rng rng(5);
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{9}}) {
    for (const std::size_t n : kWidths) {
      // Terms include ±0 factors and rows with infinities; the starting row
      // holds -0.0 too, which an added +0.0 term would flip.
      const Matrix rows = with_infinities(random_with_zeros(count, n, rng));
      const Matrix val = random_with_zeros(1, count, rng);
      const Matrix start = random_with_zeros(1, n, rng);
      std::vector<const float*> row_ptrs;
      for (std::size_t t = 0; t < count; ++t) row_ptrs.push_back(rows.data() + t * n);
      Matrix want = start;
      for (std::size_t t = 0; t < count; ++t) {
        for (std::size_t j = 0; j < n; ++j) want(0, j) += val(0, t) * rows(t, j);
      }
      for (const KernelIsa isa : supported_kernel_isas()) {
        SCOPED_TRACE(std::string(to_string(isa)) + " count=" +
                     std::to_string(count) + " n=" + std::to_string(n));
        // One guard float past the row's end: a masked tail must not touch it.
        std::vector<float> out(start.data(), start.data() + n);
        out.push_back(-0.0f);
        detail::row_kernel(isa)(out.data(), n, row_ptrs.data(), val.data(), count);
        EXPECT_EQ(std::memcmp(out.data(), want.data(), n * sizeof(float)), 0);
        EXPECT_TRUE(std::signbit(out[n]) && out[n] == 0.0f) << "wrote past n";
      }
    }
  }
}

TEST(GemmIsa, UnsupportedForcedIsaIsALoudError) {
  for (const KernelIsa isa :
       {KernelIsa::kSse2, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (kernel_isa_supported(isa)) continue;
    EXPECT_THROW(detail::row_kernel(isa), Error) << to_string(isa);
  }
}

TEST(Relu, ForwardAndBackwardMatchTheBranchyReference) {
  Rng rng(9);
  for (const std::size_t n : kWidths) {
    Matrix x = random_with_zeros(3, n, rng);
    x.data()[0] = std::numeric_limits<float>::quiet_NaN();
    Matrix want = x;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want.data()[i] < 0.0f) want.data()[i] = 0.0f;
    }
    apply_activation(Activation::kRelu, x);
    EXPECT_TRUE(same_bits(x, want)) << "forward n=" << n;

    // Backward zeroes dpost wherever post <= 0 (-0.0 included), keeping the
    // exact bits (signed zeros too) everywhere else.
    const Matrix post = x;
    Matrix dpost = random_with_zeros(3, n, rng);
    Matrix want_d = dpost;
    for (std::size_t i = 0; i < want_d.size(); ++i) {
      if (post.data()[i] <= 0.0f) want_d.data()[i] = 0.0f;
    }
    activation_backward(Activation::kRelu, post, dpost);
    EXPECT_TRUE(same_bits(dpost, want_d)) << "backward n=" << n;
  }
}

}  // namespace
}  // namespace de::nn
