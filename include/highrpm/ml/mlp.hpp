// Multi-layer perceptron with backprop + Adam.
//
// This one network backs two different roles in the paper:
//  * the "NN" baseline of Table 4 (hidden_size=30, single output), and
//  * the SRR model of §4.3 (input = [P_Node, PMC...], one hidden layer,
//    two outputs: P_CPU and P_MEM).
// It supports warm-start fine-tuning (fit with reset=false), which the
// active-learning stage and the x86 transfer experiment rely on.
#pragma once

#include <cstdint>

#include "highrpm/data/scaler.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/math/rng.hpp"
#include "highrpm/ml/regressor.hpp"
#include "highrpm/ml/train_workspace.hpp"

namespace highrpm::ml {

enum class Activation { kReLU, kTanh, kSigmoid };

struct MlpConfig {
  std::vector<std::size_t> hidden{30};
  Activation activation = Activation::kTanh;
  std::size_t epochs = 60;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;  // Adam step size
  double l2 = 1e-5;
  std::uint64_t seed = 42;
};

/// Multi-output MLP core. Handles input standardization and per-output
/// target standardization internally; fit/predict speak raw units.
class Mlp {
 public:
  explicit Mlp(MlpConfig cfg = {});

  /// Train on x (n x in_dim) against y (n x out_dim). reset=true reinitializes
  /// weights and refits scalers; reset=false fine-tunes the current weights
  /// with the existing scalers (epochs_override > 0 limits the pass count).
  void fit(const math::Matrix& x, const math::Matrix& y, bool reset = true,
           std::size_t epochs_override = 0);

  /// Caller-owned reusable buffers for the allocation-free predict path:
  /// the standardized input plus two ping-pong activation buffers.
  struct Scratch {
    std::vector<double> xs;
    std::vector<double> a;
    std::vector<double> b;
  };

  std::vector<double> predict_one(std::span<const double> row) const;
  /// predict_one into caller-owned output + scratch buffers: bit-identical
  /// results, no heap allocation once the buffers are warm. Thread-safe for
  /// concurrent calls on the same const model as long as each caller brings
  /// its own scratch.
  void predict_one_into(std::span<const double> row, std::vector<double>& out,
                        Scratch& scratch) const;
  math::Matrix predict(const math::Matrix& x) const;

  /// Caller-owned buffers for the batched allocation-free predict path:
  /// standardized inputs plus two ping-pong activation matrices.
  struct BatchScratch {
    math::Matrix xs;
    math::Matrix a;
    math::Matrix b;
  };

  /// Batched predict_one over the rows of `x` into a caller-owned
  /// `out` (x.rows() x out_dim): one matmul_nt_bias_into per layer instead
  /// of a dot product per output unit per row. Row r of `out` is
  /// bit-identical to predict_one_into(x.row(r), ...) — the GEMM kernel
  /// evaluates the same `b[o] + dot(w.row(o), cur)` expression in the same
  /// order. No allocation once the buffers are warm; thread-safe on a const
  /// model when each caller brings its own scratch.
  void predict_batch_into(const math::Matrix& x, math::Matrix& out,
                          BatchScratch& scratch) const;

  bool fitted() const noexcept { return fitted_; }
  std::size_t input_dim() const noexcept { return in_dim_; }
  std::size_t output_dim() const noexcept { return out_dim_; }
  const MlpConfig& config() const noexcept { return cfg_; }

  /// Total trainable parameter count (for the overhead bench / docs).
  std::size_t parameter_count() const;

 private:
  struct Layer {
    math::Matrix w;            // out x in
    std::vector<double> b;     // out
    math::Matrix mw, vw;       // Adam moments for w
    std::vector<double> mb, vb;
  };

  /// Everything a fit() needs besides the model itself, kept in train_:
  /// sized on first use and reused by later fits, so a warm fit on data of
  /// an already-seen shape performs no heap allocation. Only fit() writes
  /// it, and it reads each buffer only after writing it.
  struct TrainWorkspace {
    math::Matrix xs, ys;  // standardized inputs and targets
    // One sample's activations: pre[l] is layer l's pre-activation (hidden
    // layers only), post[l] its output (the network output for the last).
    std::vector<std::vector<double>> pre, post;
    std::vector<double> delta, prev;  // backprop deltas, ping-ponged
    std::vector<math::Matrix> gw;     // gradient accumulators, zeroed at
    std::vector<std::vector<double>> gb;  // every batch start
    std::vector<std::size_t> order;   // the epoch's sample permutation
  };

  void initialize(std::size_t in_dim, std::size_t out_dim, math::Rng& rng);
  /// Forward pass over one standardized row, saving every layer's
  /// activations in ws.pre/ws.post (the output is ws.post.back()).
  void forward(std::span<const double> x, TrainWorkspace& ws) const;
  double activate(double v) const;
  double activate_grad(double pre, double post) const;

  MlpConfig cfg_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::vector<Layer> layers_;
  data::StandardScaler x_scaler_;
  std::vector<data::TargetScaler> y_scalers_;
  std::uint64_t adam_t_ = 0;
  bool fitted_ = false;
  TrainWorkspaceSlot<TrainWorkspace> train_;
};

/// Single-output Regressor adapter around Mlp — the Table-4 "NN" baseline.
class MlpRegressor final : public Regressor {
 public:
  explicit MlpRegressor(MlpConfig cfg = {});
  void fit(const math::Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> row) const override;
  /// Blocked-matmul batch forward pass through the underlying network.
  std::vector<double> predict(const math::Matrix& x) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "NN"; }
  bool fitted() const override { return net_.fitted(); }

  Mlp& network() noexcept { return net_; }

 private:
  MlpConfig cfg_;
  Mlp net_;
};

}  // namespace highrpm::ml
