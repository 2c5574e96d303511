#include "nn/matrix.hpp"

#include "common/require.hpp"
#include "nn/row_kernel.hpp"

namespace de::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

void Matrix::fill(float value) {
  for (auto& v : data_) v = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols, float value) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, value);
}

namespace {

void row_kernel_generic(float* out, std::size_t n, const float* const* rows,
                        const float* val, std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) {
    const float av = val[t];
    const float* row = rows[t];
    for (std::size_t j = 0; j < n; ++j) out[j] += av * row[j];
  }
}

/// out[i, :] += sum over p ascending of a[i * a_row + p * a_col] * b[p, :]
/// for i in [0, m), b being [k, n] and out [m, n]. Each row's terms are
/// gathered first (branch-free, dropping ±0 factors when `skip_zero`), so
/// the kernel runs without a data-dependent branch.
void madd_rows(float* out, const float* a, std::size_t a_row,
               std::size_t a_col, const float* b, std::size_t m, std::size_t k,
               std::size_t n, bool skip_zero) {
  const detail::RowKernelFn kernel = detail::row_kernel(KernelIsa::kAuto);
  thread_local std::vector<const float*> rows;
  thread_local std::vector<float> val;
  if (rows.size() < k) {
    rows.resize(k);
    val.resize(k);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t count = 0;
    for (std::size_t p = 0; p < k; ++p) {
      const float v = a[i * a_row + p * a_col];
      rows[count] = b + p * n;
      val[count] = v;
      count += (!skip_zero || v != 0.0f) ? 1 : 0;
    }
    kernel(out + i * n, n, rows.data(), val.data(), count);
  }
}

}  // namespace

detail::RowKernelFn detail::row_kernel(KernelIsa isa) {
  RowKernelFn kernel = nullptr;
  switch (resolve_kernel_isa(isa)) {
    case KernelIsa::kGeneric:
    case KernelIsa::kSse2:
      kernel = &row_kernel_generic;
      break;
    case KernelIsa::kAvx2:
      kernel = kRowKernelAvx2;
      break;
    case KernelIsa::kAvx512:
      kernel = kRowKernelAvx512;
      break;
    case KernelIsa::kAuto:
      break;
  }
  DE_REQUIRE(kernel != nullptr, "nn row kernel not compiled for this ISA");
  return kernel;
}

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  DE_REQUIRE(a.cols() == b.rows(), "gemm shape mismatch");
  out.resize(a.rows(), b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  madd_rows(out.data(), a.data(), k, 1, b.data(), m, k, n, /*skip_zero=*/true);
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  DE_REQUIRE(a.rows() == b.rows(), "gemm_at_b shape mismatch");
  out.resize(a.cols(), b.cols());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  madd_rows(out.data(), a.data(), 1, m, b.data(), m, k, n, /*skip_zero=*/true);
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  DE_REQUIRE(a.cols() == b.cols(), "gemm_a_bt shape mismatch");
  out.resize(a.rows(), b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  // b^T once, so each output row is the same contiguous row sum as gemm's.
  thread_local std::vector<float> bt;
  if (bt.size() < k * n) bt.resize(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b(j, p);
  }
  madd_rows(out.data(), a.data(), k, 1, bt.data(), m, k, n, /*skip_zero=*/false);
}

void add_row_vector(Matrix& m, const Matrix& bias) {
  DE_REQUIRE(bias.rows() == 1 && bias.cols() == m.cols(), "bias shape mismatch");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += bias(0, j);
  }
}

void col_sums(const Matrix& m, Matrix& out) {
  out.resize(1, m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) out(0, j) += row[j];
  }
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  DE_REQUIRE(a.rows() == b.rows(), "hcat row mismatch");
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) out(i, j) = a(i, j);
    for (std::size_t j = 0; j < b.cols(); ++j) out(i, a.cols() + j) = b(i, j);
  }
  return out;
}

}  // namespace de::nn
