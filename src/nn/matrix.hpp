// Minimal dense row-major float matrix with the GEMM variants a hand-rolled
// MLP needs. DDPG's networks are small ({400,200,100} hidden at most), but
// OSDS trains them for thousands of steps per plan, so these GEMMs are most
// of the planner's time. All three reduce to one row kernel, vectorised per
// dispatch target (nn/row_kernel.hpp, common/kernel_isa.hpp) and bit-exact
// on every target: each output element is summed over the inner dimension
// in ascending order, starting from 0, one rounded multiply and one rounded
// add per term, as the plain triple loop does.
#pragma once

#include <cstddef>
#include <vector>

namespace de::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float value);
  void resize(std::size_t rows, std::size_t cols, float value = 0.0f);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// gemm and gemm_at_b skip the terms whose `a` factor is ±0 (ReLU zeroes
// about half of every activation); gemm_a_bt sums every term.

/// out = a * b                  [m,k] x [k,n] -> [m,n]
void gemm(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a^T * b                [k,m] x [k,n] -> [m,n]
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a * b^T                [m,k] x [n,k] -> [m,n]
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out);

/// Adds row vector `bias` ([1,n]) to every row of `m` ([*,n]).
void add_row_vector(Matrix& m, const Matrix& bias);
/// out[0,j] = sum_i m(i,j)  (column sums into a [1,n] row vector).
void col_sums(const Matrix& m, Matrix& out);

/// Horizontal concatenation [m, a.cols + b.cols].
Matrix hcat(const Matrix& a, const Matrix& b);

}  // namespace de::nn
