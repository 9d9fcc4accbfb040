// DynamicTRR (paper §4.2.2): real-time temporal-resolution restoration.
//
// A compact stacked LSTM consumes sliding windows of miss_interval rows,
// each row = [PMC..., P'_Node(previous tick)], and predicts the node power
// at every step of the window (Fig 4's dataset construction). Offline it is
// trained on windows from the training programs; online it runs in a
// streaming loop: every tick gets a prediction, and whenever a real IM
// reading arrives the model is fine-tuned on the freshly completed window
// (the active-learning behaviour of §4.1/§6.4.5: fine-tune < 2 s).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/data/window.hpp"
#include "highrpm/ml/rnn.hpp"
#include "highrpm/ml/tree.hpp"
#include "highrpm/obs/counter.hpp"

namespace highrpm::core {

struct DynamicTrrConfig {
  std::size_t miss_interval = 10;  // ticks between IM readings (window size)
  ml::RnnConfig rnn{};             // defaults: LSTM, units=2, layers=2
  /// Epochs used for each online fine-tune step.
  std::size_t finetune_epochs = 2;
  bool online_finetune = true;
  /// Offline-training window stride: 1 uses every overlapping window;
  /// larger strides trade a little accuracy for proportionally faster
  /// training (useful for large corpora / sweep benches).
  std::size_t train_stride = 1;
  // Graceful degradation under sensor faults (EXPERIMENTS.md "Fault model
  // and degradation semantics") is always on: non-finite PMC rows are
  // replaced by the last good row and kept out of fine-tune windows; IM
  // readings that are non-finite, outside the plausibility band, or stuck
  // at one value while the prediction drifts away, are rejected (treated
  // as missing); estimates are clamped into the band. On clean streams
  // none of this ever triggers. The knobs below tune it.

  /// Plausibility band half-margin around the training labels:
  /// [min - m, max + m] with m = bound_margin * max(1, max - min) — the
  /// same derivation StaticTRR uses for p_bottom/p_upper. Deployment
  /// workloads legitimately range past the training labels, so the margin
  /// is a full band width: wide enough for cross-workload drift, still far
  /// inside the ~3x excursions a spiking sensor produces.
  double bound_margin = 1.0;
  /// A reading repeated more than stuck_limit consecutive times counts as a
  /// stuck sensor once the model's prediction disagrees with it by more
  /// than stuck_disagreement * (p_upper - p_bottom). Requiring the
  /// disagreement keeps legitimately-constant (quantized) readings on
  /// steady workloads from being rejected.
  std::size_t stuck_limit = 3;
  double stuck_disagreement = 0.25;
  /// Also fit a cheap decision-tree ResModel on the same [PMC..., P'_prev]
  /// rows at train() time (pointwise, not windowed). The adaptive sampling
  /// controller (highrpm::adapt) routes quiet-phase predicts through it via
  /// set_use_cheap(); the LSTM and the SoA ring stay warm throughout so a
  /// switch back to the dense path is seamless.
  bool train_cheap_model = false;
  ml::TreeConfig cheap_tree{};
};

/// Last-finite-row hold, the one degradation policy for sensor rows: a row
/// holding any non-finite value is overwritten by the last finite row seen,
/// or by zeros before the first one. Node power rarely moves in one tick,
/// so the held row is the best available stand-in. Once a finite row has
/// been stored, holding allocates nothing.
class RowHold {
 public:
  /// Hold `row` in place when it is not finite, else remember it. Returns
  /// true when the row was held.
  bool apply(std::span<double> row);
  /// Forget the remembered row (new stream); its storage is kept.
  void reset() noexcept { have_ = false; }

 private:
  std::vector<double> last_;
  bool have_ = false;
};

class DynamicTrr {
 public:
  explicit DynamicTrr(DynamicTrrConfig cfg = {});

  /// Offline training: per-run PMC matrices with dense node-power labels
  /// (training programs have rig-derived dense labels, §5.2). Windows are
  /// built per run so sequences never span run boundaries.
  void train(std::span<const math::Matrix> run_pmcs,
             std::span<const std::vector<double>> run_labels);

  /// Convenience overload for a single run.
  void train_single(const math::Matrix& pmcs, std::span<const double> labels);

  /// Warm-start fine-tune on pre-built windows (active learning stage).
  void fine_tune(std::span<const data::SequenceSample> windows,
                 std::size_t epochs);

  // --- streaming interface ---
  /// Reset the stream state (new program / new node).
  void reset_stream();
  /// What step_commit decided for one tick.
  struct Commit {
    double estimate = 0.0;  // the node-power estimate for this tick
    /// True iff an IM reading was accepted and superseded the prediction
    /// (estimate is then the reading itself); false on predicted ticks and
    /// on ticks whose reading was rejected as implausible or stuck.
    bool accepted = false;
  };

  /// Feed one tick: the sampled PMC rates and, if this tick carried an IM
  /// reading, its value. Returns the node-power estimate for this tick
  /// (the measured value itself when the reading is accepted).
  Commit step(std::span<const double> pmcs, std::optional<double> im_reading);

  /// Everything step() decides before the model runs, carried from
  /// step_prepare to step_commit. `rows` is the window fill this tick's
  /// prediction covers (== stream_window_size() after prepare).
  struct StepPrep {
    bool have_reading = false;
    double reading_value = 0.0;
    std::size_t rows = 0;
    std::size_t slot = 0;  // physical ring slot claimed for this tick
  };

  /// Phase 1 of step(): claim this tick's ring slot, build its
  /// [PMC..., P'_prev] row in the SoA window (invalidating the slot's
  /// cached projection), and run input validation / degradation. This is
  /// the only place a node PMC row is held or a non-finite reading dropped:
  /// callers pass raw sensor inputs and read the held row back through
  /// prepared_row(). After it returns, pack_projection_into() yields the
  /// window to predict over.
  /// Exactly one prepare must be followed by exactly one step_commit before
  /// the next prepare on the same instance (the fleet stepper interleaves
  /// prepares across *nodes*, never within one).
  StepPrep step_prepare(std::span<const double> pmcs,
                        std::optional<double> im_reading);
  /// The F-wide PMC row this tick's window slot holds: the input row, or
  /// the held row when the input was not finite. SRR and the adaptive
  /// controller read it so every consumer of a tick sees the same input.
  /// Valid until the next step_prepare.
  std::span<const double> prepared_row(const StepPrep& prep) const {
    const auto row = win_rows_.row(prep.slot);
    return row.first(row.size() - 1);
  }
  /// Copy the current window's layer-0 input projections (oldest row
  /// first) into consecutive rows of `out` starting at `row_offset`, first
  /// reprojecting any ring slot whose cached projection is stale (rewritten
  /// since, or stamped with an older model generation). `out` must already
  /// be sized with out.cols() == model().projection_dim() and
  /// row_offset + stream_window_size() rows. This is how the fleet stepper
  /// packs many nodes' windows into one batch for
  /// SequenceRegressor::predict_projected_into; no allocation.
  void pack_projection_into(math::Matrix& out, std::size_t row_offset);
  /// Phase 2 of step() for callers that predicted the window themselves
  /// (batched): apply validation clamps, stuck-sensor logic, measurement
  /// supersede + online fine-tune to the model's raw estimate for the
  /// newest row, record bookkeeping, and return the final estimate and
  /// whether the tick's reading was accepted.
  Commit step_commit(const StepPrep& prep, double raw_estimate);
  /// The predict leg of step() on this instance's own model — for
  /// unbatched callers between step_prepare and step_commit. Zero heap
  /// allocations once the member scratch is warm.
  double predict_prepared();
  /// Cheap-path predict leg: the decision-tree ResModel on this tick's
  /// [PMC..., P'_prev] row (an allocation-free node walk). Requires
  /// cheap_fitted(); the ring row built by step_prepare is read in place.
  double predict_prepared_cheap(const StepPrep& prep) const;

  /// Route step()/fleet predicts through the cheap decision-tree path
  /// (adaptive sparse mode). While active, online fine-tune is suspended —
  /// the LSTM is not being consulted, so there is nothing to correct — but
  /// the ring keeps filling every tick. Enabling requires cheap_fitted().
  void set_use_cheap(bool on);
  bool use_cheap() const noexcept { return use_cheap_; }
  bool cheap_fitted() const noexcept { return cheap_.fitted(); }

  bool fitted() const noexcept { return model_.fitted(); }
  const DynamicTrrConfig& config() const noexcept { return cfg_; }
  const ml::SequenceRegressor& model() const noexcept { return model_; }
  std::size_t finetune_count() const noexcept {
    return static_cast<std::size_t>(finetunes_.value());
  }

  /// Plausibility band and label mean captured at train() time.
  double p_upper() const noexcept { return p_upper_; }
  double p_bottom() const noexcept { return p_bottom_; }
  double train_label_mean() const noexcept { return label_mean_; }
  /// Degradation diagnostics (cumulative, like finetune_count()). Backed by
  /// obs::Counter atomics so a monitor thread can poll them while another
  /// thread is stepping the stream — the mixed read/write was a data race
  /// when these were plain fields (ctest -L sanitize pins the fix down).
  std::size_t rejected_readings() const noexcept {
    return static_cast<std::size_t>(rejected_readings_.value());
  }
  std::size_t substituted_rows() const noexcept {
    return static_cast<std::size_t>(substituted_rows_.value());
  }
  /// Ticks answered from the training-label-mean prior because the stream
  /// had no previous estimate and the tick carried no usable reading.
  std::size_t cold_starts() const noexcept {
    return static_cast<std::size_t>(cold_starts_.value());
  }
  /// Current streaming-window fill (never exceeds miss_interval).
  std::size_t stream_window_size() const noexcept { return win_count_; }

 private:
  /// Physical ring index of logical window slot i (0 = oldest). The ring
  /// replaces push_back + erase-front so the steady-state tick reuses slot
  /// storage instead of allocating a fresh row every tick.
  std::size_t ring_index(std::size_t i) const noexcept {
    return (win_start_ + i) % cfg_.miss_interval;
  }

  /// Copy the current raw ring window (oldest row first) into consecutive
  /// rows of `out` starting at `row_offset` (out.cols() == F+1) — the
  /// online fine-tune's sample.
  void pack_window_into(math::Matrix& out, std::size_t row_offset) const;

  /// False when the reading is non-finite or outside [p_bottom, p_upper].
  bool plausible_reading(double value) const;
  /// Stuck-sensor tracking; true when the reading should be rejected.
  bool stuck_reading(double value, double estimate);
  /// Capture label statistics (mean, plausibility band) at train time.
  void capture_label_stats(std::span<const std::vector<double>> run_labels);

  DynamicTrrConfig cfg_;
  ml::SequenceRegressor model_;
  /// Cheap pointwise ResModel (cfg_.train_cheap_model) and the routing
  /// flag the adaptive controller toggles at window boundaries.
  ml::DecisionTreeRegressor cheap_;
  bool use_cheap_ = false;
  /// SoA ring storage (capacity miss_interval once streaming): one matrix
  /// row per window step = [PMC..., P'_prev], parallel per-slot estimate
  /// and cleanliness arrays, plus cursor/fill. Structure-of-arrays keeps
  /// the rows contiguous so the window packs are row-range copies
  /// instead of per-slot pointer chasing.
  math::Matrix win_rows_;
  std::vector<double> win_est_;
  std::vector<unsigned char> win_clean_;
  std::size_t win_start_ = 0;
  std::size_t win_count_ = 0;
  /// Ring projection cache (DESIGN.md §8): row s holds model_'s layer-0
  /// input projection of win_rows_ row s, valid iff win_zx_gen_[s] equals
  /// model_.generation() (0 = stale; a fitted model's generation is >= 1).
  /// step_prepare invalidates the slot it writes, and every fit bumps the
  /// generation, so a slot is reprojected only when its row or the
  /// weights changed.
  math::Matrix win_zx_;
  std::vector<std::uint64_t> win_zx_gen_;
  /// Per-tick scratch, reused across steps so the steady-state predict path
  /// performs zero heap allocations once warm.
  std::vector<double> x_scratch_;
  math::Matrix zx_scratch_;
  math::Matrix preds_scratch_;
  ml::SequenceRegressor::Workspace ws_;
  /// The online fine-tune's sample (ring window + its labels), repacked in
  /// place at every accepted reading.
  data::SequenceSample finetune_window_;
  double prev_estimate_ = 0.0;
  bool have_prev_ = false;
  obs::Counter finetunes_;
  // Captured at train() time.
  std::size_t n_features_ = 0;
  double label_mean_ = 0.0;
  double p_upper_ = 0.0;
  double p_bottom_ = 0.0;
  // Degradation state (stream-local) and counters (cumulative).
  RowHold pmc_hold_;
  double last_im_value_ = 0.0;
  bool have_last_im_ = false;
  std::size_t im_repeats_ = 0;
  obs::Counter rejected_readings_;
  obs::Counter substituted_rows_;
  obs::Counter cold_starts_;
};

}  // namespace highrpm::core
