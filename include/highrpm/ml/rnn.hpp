// Recurrent sequence regressors: stacked LSTM or GRU cells plus a shared
// fully-connected output head, trained with truncated BPTT over the
// fixed-length windows produced by data::make_windows*.
//
// This implements the paper's DynamicTRR network ("a compact LSTM model with
// an input layer, two hidden layers, and a fully connected layer", units = 2
// per Table 4) and the GRU/LSTM baselines. Supports warm-start fine-tuning:
// DynamicTRR refines the trained model with the newest window every time a
// real IM reading arrives (§4.2.2).
#pragma once

#include <cstdint>
#include <string>

#include "highrpm/data/scaler.hpp"
#include "highrpm/data/window.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/math/rng.hpp"
#include "highrpm/ml/train_workspace.hpp"

namespace highrpm::ml {

enum class CellType { kLstm, kGru };

struct RnnConfig {
  CellType cell = CellType::kLstm;
  std::size_t units = 2;   // hidden width per recurrent layer
  std::size_t layers = 2;  // stacked recurrent layers
  std::size_t epochs = 30;
  std::size_t batch_size = 16;
  double learning_rate = 5e-3;  // Adam
  double grad_clip = 5.0;       // elementwise clip on accumulated grads
  std::uint64_t seed = 97;
};

/// Many-to-many sequence regressor: given a T x F window it emits one scalar
/// per step. Input/target scaling is internal (raw units at the interface).
class SequenceRegressor {
 public:
  explicit SequenceRegressor(RnnConfig cfg = {});

  /// Train (reset=true) or fine-tune (reset=false, keeping scalers/weights).
  /// Every buffer comes from the model's training workspace, so once a fit
  /// has seen windows of a given length, a fine-tune on such windows makes
  /// no heap allocation.
  void fit(std::span<const data::SequenceSample> samples, bool reset = true,
           std::size_t epochs_override = 0);

  /// Caller-owned reusable buffers for the allocation-free predict paths.
  /// A workspace belongs to one caller at a time (confine it to a single
  /// thread); reuse it across calls so that once it has seen the largest
  /// (lanes, T) shape, further predicts perform zero heap allocations.
  struct Workspace {
    /// Cell-step scratch.
    struct StepScratch {
      std::vector<double> z;      // gate pre-activations
      std::vector<double> gates;  // gate post-activations
      std::vector<double> rh;     // GRU reset-gated hidden state
    };
    StepScratch scratch;
    std::vector<double> x;  // one standardized input row
    math::Matrix zx0;       // (lanes*T) x gates layer-0 input projection
    math::Matrix zx;        // (lanes*T) x gates layer-l (l >= 1) projection
    math::Matrix h;         // lanes x units, current layer's hidden state
    math::Matrix c;         // lanes x units, current layer's LSTM cell state
    math::Matrix zu;        // lanes x gates recurrent projection at step t
    math::Matrix hseq_a;    // (lanes*T) x units ping-pong layer outputs
    math::Matrix hseq_b;    // (lanes*T) x units
    math::Matrix out;       // 1 x T staging for predict_into
  };

  /// Per-step predictions for a T x F window (any T >= 1).
  std::vector<double> predict(const math::Matrix& steps) const;
  /// predict() into caller-owned output + workspace buffers: bit-identical
  /// results, no heap allocation once the buffers are warm. `out` is
  /// resized to T. Thread-safe for concurrent calls on the same const model
  /// as long as each caller brings its own workspace.
  void predict_into(const math::Matrix& steps, std::vector<double>& out,
                    Workspace& ws) const;

  /// Layer-0 input projection of one raw input row, the part of a predict
  /// that depends on that row alone: the row is standardized into `x`
  /// (input_dim() scratch) and zx[j] = b[j] + dot(x, W.row(j)) for every
  /// gate j (zx.size() == projection_dim()). Scaling and the bias-first dot
  /// keep the operand order and association of the predict paths, so a
  /// cached row is bit-identical to recomputing it — as long as
  /// generation() has not moved since.
  void project_input_row_into(std::span<const double> row,
                              std::span<double> zx,
                              std::span<double> x) const;
  /// The recurrence every predict runs, from layer-0 projections: `zx0`
  /// holds project_input_row_into rows for `lanes` windows of equal length
  /// T, lane-major ((lanes*T) x projection_dim(), lane i in rows
  /// [i*T, (i+1)*T)). Each layer l >= 1 runs one bias-folded input GEMM
  /// over all lanes*T rows, every layer one recurrent GEMM per time step
  /// over all lanes; every per-cell expression keeps one operand order and
  /// association, so lane i's row of `out` (lanes x T) does not depend on
  /// which other lanes share the call. `zx0` may be ws.zx0.
  void predict_projected_into(const math::Matrix& zx0, std::size_t lanes,
                              math::Matrix& out, Workspace& ws) const;

  /// Weight generation: 0 until the first fit(), then bumped by every fit
  /// (training, warm-start fine-tune, online fine-tune) — the staleness
  /// stamp for cached project_input_row_into rows. Copies carry it along
  /// with the weights it stamps.
  std::uint64_t generation() const noexcept { return generation_; }
  /// Width of one input projection row (the stacked gate count).
  std::size_t projection_dim() const noexcept { return gate_count(); }

  bool fitted() const noexcept { return fitted_; }
  const RnnConfig& config() const noexcept { return cfg_; }
  std::size_t input_dim() const noexcept { return in_dim_; }
  std::size_t parameter_count() const;
  std::string name() const {
    return cfg_.cell == CellType::kLstm ? "LSTM" : "GRU";
  }

 private:
  /// Test-only access to the direct (time-outer, gate-by-gate) forward
  /// pass — the reference the projection path is checked against.
  friend struct SequenceRegressorTestPeer;

  struct CellParams {
    // Gate-stacked weights: LSTM rows = 4*units (i,f,g,o); GRU rows = 3*units
    // (z,r,n). w: gates x input_dim, u: gates x units, b: gates.
    math::Matrix w, u;
    std::vector<double> b;
    // Adam moments.
    math::Matrix mw, vw, mu, vu;
    std::vector<double> mb, vb;
  };
  struct Head {
    std::vector<double> w;  // units
    double b = 0.0;
    std::vector<double> mw, vw;
    double mb = 0.0, vb = 0.0, mbb = 0.0;
  };
  /// Gradient accumulators for one cell, shaped like its parameters.
  struct CellGrads {
    math::Matrix w, u;
    std::vector<double> b;
  };
  /// Everything a fit() needs besides the model itself, kept in train_:
  /// sized on first use and reused by later fits, so a warm fit on windows
  /// of an already-seen length performs no heap allocation. Only fit()
  /// writes it, and it reads each buffer only after writing it.
  struct TrainWorkspace {
    /// Row of h/c holding layer l's state after step t of a T-step window;
    /// the row before it holds the state before step t (row l*(T+1) is the
    /// zero initial state).
    static std::size_t state_row(std::size_t l, std::size_t t,
                                 std::size_t T) noexcept {
      return l * (T + 1) + t + 1;
    }

    math::Matrix xs;  // T x F scaled window (layer 0's input)
    // Forward caches for BPTT: h, c are layers*(T+1) x units (state_row),
    // gates is layers*T x gates (row l*T + t). Layer l >= 1's input at step
    // t is layer l-1's h at step t, so inputs are not cached separately.
    math::Matrix h, c, gates;
    std::vector<double> pred;  // T head outputs, scaled space
    Workspace::StepScratch scratch;
    // BPTT deltas: dh/dx/dh_prev/drh are units wide, dz gates wide, dy T.
    std::vector<double> dy, dh, dx, dh_prev, dz, drh;
    math::Matrix dh_time, dc_time;  // layers x units, flowing to step t-1
    std::vector<CellGrads> grads;   // zeroed at every batch start
    std::vector<double> head_gw;
    double head_gb = 0.0;
    std::vector<std::size_t> order;  // the epoch's sample permutation
  };

  void initialize(std::size_t in_dim, math::Rng& rng);
  std::size_t gate_count() const {
    return (cfg_.cell == CellType::kLstm ? 4 : 3) * cfg_.units;
  }
  /// One cell step, in place: h_inout holds h_{t-1} on entry and h_t on
  /// return (safe because every gate pre-activation is fully computed from
  /// h_{t-1} before any element of h is overwritten, and the GRU update
  /// reads h_prev[j] in the same expression that writes h[j]); c_inout is
  /// the LSTM cell state, updated likewise. Uses only the scratch buffers —
  /// no allocation once they are warm.
  void cell_step_into(const CellParams& p, std::span<const double> x,
                      std::span<double> h_inout, std::span<double> c_inout,
                      Workspace::StepScratch& scratch) const;
  /// cell_step_into with the input projection `b + w·x` already folded into
  /// `zx` (one GEMM row per step) and the recurrent projection `u·h_{t-1}`
  /// precomputed in `zu`. Gate arithmetic keeps cell_step_into's operand
  /// order and association, so the updated h/c are bit-identical to it.
  void cell_step_preproj_into(const CellParams& p, std::span<const double> zx,
                              std::span<const double> zu,
                              std::span<double> h_inout,
                              std::span<double> c_inout,
                              Workspace::StepScratch& scratch) const;
  /// Project every row of `rows` into ws.zx0.
  void project_rows_into(const math::Matrix& rows, Workspace& ws) const;
  /// Forward a whole scaled window (time-outer, one cell_step_into per
  /// layer per step) into tw: per-step head outputs (scaled space) in
  /// tw.pred, the per-layer per-step states and gates BPTT reads in
  /// tw.h/tw.c/tw.gates. `xs` may be tw.xs.
  void forward(const math::Matrix& xs, TrainWorkspace& tw) const;
  void adam_step(double lr);

  RnnConfig cfg_;
  std::size_t in_dim_ = 0;
  std::vector<CellParams> cells_;
  Head head_;
  TrainWorkspaceSlot<TrainWorkspace> train_;
  data::StandardScaler x_scaler_;
  data::TargetScaler y_scaler_;
  std::uint64_t adam_t_ = 0;
  std::uint64_t generation_ = 0;
  bool fitted_ = false;
};

}  // namespace highrpm::ml
