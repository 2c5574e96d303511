#include "nn/linear.hpp"

#include <cmath>
#include <span>

#include "common/require.hpp"

namespace de::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : w_(in, out), b_(1, out), dw_(in, out), db_(1, out) {
  // He-style uniform init, standard for small actor-critic MLPs.
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  b_.fill(0.0f);
}

const Matrix& Linear::forward(const Matrix& x) {
  DE_REQUIRE(x.cols() == w_.rows(), "linear input width mismatch");
  x_cache_ = x;
  gemm(x, w_, y_);
  add_row_vector(y_, b_);
  return y_;
}

const Matrix& Linear::backward(const Matrix& dy) {
  DE_REQUIRE(dy.rows() == x_cache_.rows() && dy.cols() == w_.cols(),
             "linear backward shape mismatch");
  Matrix dw_local, db_local;
  gemm_at_b(x_cache_, dy, dw_local);
  col_sums(dy, db_local);
  for (std::size_t i = 0; i < dw_.size(); ++i) dw_.data()[i] += dw_local.data()[i];
  for (std::size_t i = 0; i < db_.size(); ++i) db_.data()[i] += db_local.data()[i];
  gemm_a_bt(dy, w_, dx_);
  return dx_;
}

void Linear::zero_grad() {
  dw_.fill(0.0f);
  db_.fill(0.0f);
}

void apply_activation(Activation act, Matrix& m) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      // A select, not a branch: about half of all inputs are negative, so a
      // branch mispredicts constantly. -0.0 and NaN pass through unchanged.
      for (float& x : std::span(m.data(), m.size())) x = x < 0.0f ? 0.0f : x;
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = std::tanh(m.data()[i]);
      return;
  }
}

void activation_backward(Activation act, const Matrix& post, Matrix& dpost) {
  DE_REQUIRE(post.size() == dpost.size(), "activation backward shape mismatch");
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu: {
      const float* p = post.data();
      float* d = dpost.data();
      for (std::size_t i = 0, n = post.size(); i < n; ++i) {
        d[i] = p[i] <= 0.0f ? 0.0f : d[i];
      }
      return;
    }
    case Activation::kTanh:
      for (std::size_t i = 0; i < post.size(); ++i) {
        const float t = post.data()[i];
        dpost.data()[i] *= (1.0f - t * t);
      }
      return;
  }
}

}  // namespace de::nn
