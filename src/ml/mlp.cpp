#include "highrpm/ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace highrpm::ml {

namespace {
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
}  // namespace

Mlp::Mlp(MlpConfig cfg) : cfg_(std::move(cfg)) {}

void Mlp::initialize(std::size_t in_dim, std::size_t out_dim, math::Rng& rng) {
  in_dim_ = in_dim;
  out_dim_ = out_dim;
  layers_.clear();
  std::vector<std::size_t> dims;
  dims.push_back(in_dim);
  for (const std::size_t h : cfg_.hidden) dims.push_back(h);
  dims.push_back(out_dim);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    const std::size_t fan_in = dims[l];
    const std::size_t fan_out = dims[l + 1];
    // Glorot-uniform initialization.
    const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    layer.w = math::Matrix(fan_out, fan_in);
    for (double& v : layer.w.flat()) v = rng.uniform(-limit, limit);
    layer.b.assign(fan_out, 0.0);
    layer.mw = math::Matrix(fan_out, fan_in);
    layer.vw = math::Matrix(fan_out, fan_in);
    layer.mb.assign(fan_out, 0.0);
    layer.vb.assign(fan_out, 0.0);
    layers_.push_back(std::move(layer));
  }
  adam_t_ = 0;
}

double Mlp::activate(double v) const {
  switch (cfg_.activation) {
    case Activation::kReLU:
      return v > 0.0 ? v : 0.0;
    case Activation::kTanh:
      return std::tanh(v);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

double Mlp::activate_grad(double pre, double post) const {
  switch (cfg_.activation) {
    case Activation::kReLU:
      return pre > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - post * post;
    case Activation::kSigmoid:
      return post * (1.0 - post);
  }
  return 1.0;
}

void Mlp::forward(std::span<const double> x, TrainWorkspace& ws) const {
  std::span<const double> cur = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double>& next = ws.post[l];
    next.resize(layer.w.rows());
    for (std::size_t o = 0; o < layer.w.rows(); ++o) {
      next[o] = layer.b[o] + math::dot(layer.w.row(o), cur);
    }
    const bool is_output = l + 1 == layers_.size();
    if (!is_output) {
      ws.pre[l].assign(next.begin(), next.end());
      for (double& v : next) v = activate(v);
    }
    cur = next;
  }
}

void Mlp::fit(const math::Matrix& x, const math::Matrix& y, bool reset,
              std::size_t epochs_override) {
  if (x.rows() == 0 || x.rows() != y.rows()) {
    throw std::invalid_argument("Mlp::fit: shape mismatch");
  }
  math::Rng rng(cfg_.seed + (reset ? 0 : 1 + adam_t_));
  if (reset || !fitted_) {
    x_scaler_.fit(x);
    y_scalers_.assign(y.cols(), data::TargetScaler{});
    for (std::size_t c = 0; c < y.cols(); ++c) y_scalers_[c].fit(y.col(c));
    initialize(x.cols(), y.cols(), rng);
    fitted_ = true;
  } else {
    if (x.cols() != in_dim_ || y.cols() != out_dim_) {
      throw std::invalid_argument("Mlp::fit(fine-tune): dimension mismatch");
    }
  }
  TrainWorkspace& ws = train_.get();
  ws.xs.resize(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x_scaler_.transform_row_into(x.row(r), ws.xs.row(r));
  }
  ws.ys.resize(y.rows(), y.cols());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      ws.ys(r, c) = y_scalers_[c].transform_one(y(r, c));
    }
  }
  const math::Matrix& xs = ws.xs;
  const math::Matrix& ys = ws.ys;

  const std::size_t n = xs.rows();
  const std::size_t epochs = epochs_override > 0 ? epochs_override : cfg_.epochs;
  const std::size_t batch = std::max<std::size_t>(1, cfg_.batch_size);

  // Activation buffers and gradient accumulators mirroring layer shapes.
  const std::size_t L = layers_.size();
  ws.pre.resize(L);
  ws.post.resize(L);
  ws.gw.resize(L);
  ws.gb.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    ws.gw[l].resize(layers_[l].w.rows(), layers_[l].w.cols());
    ws.gb[l].resize(layers_[l].b.size());
  }
  auto& gw = ws.gw;
  auto& gb = ws.gb;
  auto& delta = ws.delta;
  auto& prev = ws.prev;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.permutation_into(ws.order, n);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(start + batch, n);
      const double inv = 1.0 / static_cast<double>(end - start);
      for (std::size_t l = 0; l < L; ++l) {
        for (double& v : gw[l].flat()) v = 0.0;
        for (double& v : gb[l]) v = 0.0;
      }
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = ws.order[bi];
        forward(xs.row(i), ws);
        const std::vector<double>& out = ws.post.back();
        // Output delta: dL/d(out) for 0.5*MSE = (pred - target).
        delta.resize(out_dim_);
        for (std::size_t o = 0; o < out_dim_; ++o) {
          delta[o] = out[o] - ys(i, o);
        }
        // Walk layers backwards: layer li's input is the sample row for
        // li == 0, else layer li-1's post-activation.
        for (std::size_t li = L; li-- > 0;) {
          const std::span<const double> input =
              li == 0 ? xs.row(i) : std::span<const double>(ws.post[li - 1]);
          for (std::size_t o = 0; o < layers_[li].w.rows(); ++o) {
            gb[li][o] += delta[o];
            auto grow = gw[li].row(o);
            for (std::size_t j = 0; j < input.size(); ++j) {
              grow[j] += delta[o] * input[j];
            }
          }
          if (li == 0) break;
          // Propagate delta to the previous layer through w and activation.
          prev.assign(layers_[li].w.cols(), 0.0);
          for (std::size_t o = 0; o < layers_[li].w.rows(); ++o) {
            const auto wrow = layers_[li].w.row(o);
            for (std::size_t j = 0; j < prev.size(); ++j) {
              prev[j] += delta[o] * wrow[j];
            }
          }
          const std::vector<double>& pre = ws.pre[li - 1];
          const std::vector<double>& post = ws.post[li - 1];
          for (std::size_t j = 0; j < prev.size(); ++j) {
            prev[j] *= activate_grad(pre[j], post[j]);
          }
          std::swap(delta, prev);
        }
      }
      // Adam update.
      ++adam_t_;
      const double bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(adam_t_));
      const double bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(adam_t_));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        auto wflat = layer.w.flat();
        auto mflat = layer.mw.flat();
        auto vflat = layer.vw.flat();
        auto gflat = gw[l].flat();
        for (std::size_t j = 0; j < wflat.size(); ++j) {
          const double g = gflat[j] * inv + cfg_.l2 * wflat[j];
          mflat[j] = kAdamBeta1 * mflat[j] + (1.0 - kAdamBeta1) * g;
          vflat[j] = kAdamBeta2 * vflat[j] + (1.0 - kAdamBeta2) * g * g;
          wflat[j] -= cfg_.learning_rate * (mflat[j] / bc1) /
                      (std::sqrt(vflat[j] / bc2) + kAdamEps);
        }
        for (std::size_t j = 0; j < layer.b.size(); ++j) {
          const double g = gb[l][j] * inv;
          layer.mb[j] = kAdamBeta1 * layer.mb[j] + (1.0 - kAdamBeta1) * g;
          layer.vb[j] = kAdamBeta2 * layer.vb[j] + (1.0 - kAdamBeta2) * g * g;
          layer.b[j] -= cfg_.learning_rate * (layer.mb[j] / bc1) /
                        (std::sqrt(layer.vb[j] / bc2) + kAdamEps);
        }
      }
    }
  }
}

std::vector<double> Mlp::predict_one(std::span<const double> row) const {
  std::vector<double> out;
  Scratch scratch;
  predict_one_into(row, out, scratch);
  return out;
}

void Mlp::predict_one_into(std::span<const double> row,
                           std::vector<double>& out, Scratch& scratch) const {
  if (!fitted_) throw std::logic_error("Mlp::predict: not fitted");
  if (row.size() != in_dim_) {
    throw std::invalid_argument("Mlp::predict: feature width mismatch");
  }
  scratch.xs.resize(in_dim_);
  x_scaler_.transform_row_into(row, scratch.xs);
  // Ping-pong between the two activation buffers: the layer input is always
  // a different buffer than the layer output, and per-output arithmetic
  // (b + dot, then activation) matches forward() exactly.
  std::span<const double> cur = scratch.xs;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double>& next = (l % 2 == 0) ? scratch.a : scratch.b;
    next.resize(layer.w.rows());
    for (std::size_t o = 0; o < layer.w.rows(); ++o) {
      next[o] = layer.b[o] + math::dot(layer.w.row(o), cur);
    }
    const bool is_output = l + 1 == layers_.size();
    if (!is_output) {
      for (double& v : next) v = activate(v);
    }
    cur = next;
  }
  out.resize(out_dim_);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    out[o] = y_scalers_[o].inverse_one(cur[o]);
  }
}

void Mlp::predict_batch_into(const math::Matrix& x, math::Matrix& out,
                             BatchScratch& scratch) const {
  if (!fitted_) throw std::logic_error("Mlp::predict: not fitted");
  if (x.cols() != in_dim_) {
    throw std::invalid_argument("Mlp::predict: feature width mismatch");
  }
  scratch.xs.resize(x.rows(), in_dim_);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x_scaler_.transform_row_into(x.row(r), scratch.xs.row(r));
  }
  // Same ping-pong structure as predict_one_into, lifted to matrices: each
  // layer is one bias-folded GEMM over every row at once.
  const math::Matrix* cur = &scratch.xs;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    math::Matrix& next = (l % 2 == 0) ? scratch.a : scratch.b;
    math::matmul_nt_bias_into(*cur, layer.w, layer.b, next);
    const bool is_output = l + 1 == layers_.size();
    if (!is_output) {
      for (double& v : next.flat()) v = activate(v);
    }
    cur = &next;
  }
  out.resize(x.rows(), out_dim_);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto crow = cur->row(r);
    auto orow = out.row(r);
    for (std::size_t o = 0; o < out_dim_; ++o) {
      orow[o] = y_scalers_[o].inverse_one(crow[o]);
    }
  }
}

math::Matrix Mlp::predict(const math::Matrix& x) const {
  if (!fitted_) throw std::logic_error("Mlp::predict: not fitted");
  if (x.cols() != in_dim_) {
    throw std::invalid_argument("Mlp::predict: feature width mismatch");
  }
  // Batched forward pass: one standardization of the whole input, then a
  // blocked matmul per layer (weights are stored out x in, so A * W^T fits
  // without a transpose copy). Per-row dot products run in the same order
  // as predict_one's, so both entry points agree bit for bit.
  math::Matrix cur = x_scaler_.transform(x);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    math::Matrix next = math::matmul_nt(cur, layer.w);
    const bool is_output = l + 1 == layers_.size();
    for (std::size_t r = 0; r < next.rows(); ++r) {
      auto row = next.row(r);
      for (std::size_t o = 0; o < row.size(); ++o) {
        row[o] += layer.b[o];
        if (!is_output) row[o] = activate(row[o]);
      }
    }
    cur = std::move(next);
  }
  for (std::size_t r = 0; r < cur.rows(); ++r) {
    auto row = cur.row(r);
    for (std::size_t o = 0; o < out_dim_; ++o) {
      row[o] = y_scalers_[o].inverse_one(row[o]);
    }
  }
  return cur;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

MlpRegressor::MlpRegressor(MlpConfig cfg) : cfg_(cfg), net_(cfg) {}

void MlpRegressor::fit(const math::Matrix& x, std::span<const double> y) {
  check_training_input(x, y);
  math::Matrix ym(y.size(), 1);
  for (std::size_t i = 0; i < y.size(); ++i) ym(i, 0) = y[i];
  net_.fit(x, ym, /*reset=*/true);
}

double MlpRegressor::predict_one(std::span<const double> row) const {
  return net_.predict_one(row)[0];
}

std::vector<double> MlpRegressor::predict(const math::Matrix& x) const {
  return net_.predict(x).col(0);
}

std::unique_ptr<Regressor> MlpRegressor::clone() const {
  return std::make_unique<MlpRegressor>(cfg_);
}

}  // namespace highrpm::ml
