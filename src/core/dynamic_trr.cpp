#include "highrpm/core/dynamic_trr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "highrpm/math/float_eq.hpp"
#include "highrpm/math/stats.hpp"
#include "highrpm/obs/obs.hpp"

namespace highrpm::core {

bool RowHold::apply(std::span<double> row) {
  if (math::all_finite(row)) {
    last_.assign(row.begin(), row.end());
    have_ = true;
    return false;
  }
  if (have_ && last_.size() == row.size()) {
    std::copy(last_.begin(), last_.end(), row.begin());
  } else {
    std::fill(row.begin(), row.end(), 0.0);
  }
  return true;
}

DynamicTrr::DynamicTrr(DynamicTrrConfig cfg)
    : cfg_(cfg), model_(cfg.rnn), cheap_(cfg.cheap_tree) {
  if (cfg_.miss_interval < 2) {
    throw std::invalid_argument("DynamicTrr: miss_interval must be >= 2");
  }
}

void DynamicTrr::capture_label_stats(
    std::span<const std::vector<double>> run_labels) {
  double lo = 0.0, hi = 0.0, sum = 0.0;
  std::size_t n = 0;
  for (const auto& labels : run_labels) {
    for (const double y : labels) {
      if (n == 0) {
        lo = hi = y;
      } else {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
      }
      sum += y;
      ++n;
    }
  }
  if (n == 0) return;
  label_mean_ = sum / static_cast<double>(n);
  const double margin = cfg_.bound_margin * std::max(1.0, hi - lo);
  p_bottom_ = lo - margin;
  p_upper_ = hi + margin;
}

void DynamicTrr::train(std::span<const math::Matrix> run_pmcs,
                       std::span<const std::vector<double>> run_labels) {
  if (run_pmcs.size() != run_labels.size() || run_pmcs.empty()) {
    throw std::invalid_argument("DynamicTrr::train: run count mismatch");
  }
  for (std::size_t r = 0; r < run_pmcs.size(); ++r) {
    if (run_pmcs[r].rows() != run_labels[r].size()) {
      throw std::invalid_argument(
          "DynamicTrr::train: pmcs/labels length mismatch in run " +
          std::to_string(r));
    }
    if (!math::all_finite(run_pmcs[r].flat()) ||
        !math::all_finite(run_labels[r])) {
      throw std::invalid_argument(
          "DynamicTrr::train: non-finite value in run " + std::to_string(r) +
          " (training data must be clean; faults are a deployment-time "
          "concern)");
    }
  }
  std::vector<data::SequenceSample> samples;
  for (std::size_t r = 0; r < run_pmcs.size(); ++r) {
    if (run_pmcs[r].rows() < cfg_.miss_interval) continue;
    // First tick's P'_prev: the first label (a measured reading always
    // exists at stream start in deployment).
    auto w = data::make_windows_with_prev_label(
        run_pmcs[r], run_labels[r], cfg_.miss_interval, run_labels[r][0]);
    const std::size_t stride = std::max<std::size_t>(1, cfg_.train_stride);
    for (std::size_t i = 0; i < w.size(); i += stride) {
      samples.push_back(std::move(w[i]));
    }
  }
  if (samples.empty()) {
    throw std::invalid_argument("DynamicTrr::train: no full windows");
  }
  n_features_ = run_pmcs[0].cols();
  capture_label_stats(run_labels);
  model_.fit(samples, /*reset=*/true);
  if (cfg_.train_cheap_model) {
    // Pointwise training rows mirror the streaming layout exactly:
    // [PMC..., P'_prev] with P'_prev = previous tick's label (first tick
    // uses the run's first label, make_windows_with_prev_label's
    // convention), so the tree can be evaluated on the very ring rows
    // step_prepare builds. Short runs skipped by the windowed LSTM
    // construction still contribute here.
    std::size_t total = 0;
    for (const auto& labels : run_labels) total += labels.size();
    math::Matrix x(total, n_features_ + 1);
    std::vector<double> y(total);
    std::size_t out = 0;
    for (std::size_t r = 0; r < run_pmcs.size(); ++r) {
      const auto& labels = run_labels[r];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        const auto dst = x.row(out);
        const auto src = run_pmcs[r].row(i);
        std::copy(src.begin(), src.end(), dst.begin());
        dst[n_features_] = i == 0 ? labels[0] : labels[i - 1];
        y[out] = labels[i];
        ++out;
      }
    }
    cheap_.fit(x, y);
  }
  reset_stream();
}

void DynamicTrr::train_single(const math::Matrix& pmcs,
                              std::span<const double> labels) {
  const std::vector<double> l(labels.begin(), labels.end());
  train(std::span<const math::Matrix>(&pmcs, 1),
        std::span<const std::vector<double>>(&l, 1));
}

void DynamicTrr::fine_tune(std::span<const data::SequenceSample> windows,
                           std::size_t epochs) {
  if (!fitted()) throw std::logic_error("DynamicTrr::fine_tune: not trained");
  if (windows.empty()) return;
  for (const auto& w : windows) {
    if (!math::all_finite(w.steps.flat()) || !math::all_finite(w.labels)) {
      throw std::invalid_argument(
          "DynamicTrr::fine_tune: non-finite value in window");
    }
  }
  model_.fit(windows, /*reset=*/false, epochs);
  finetunes_.add();
}

void DynamicTrr::reset_stream() {
  // Size the SoA ring once; steady-state ticks then recycle slot storage
  // instead of allocating. Row width is fixed at F+1 when the feature
  // width is known (post-train); otherwise the first step sizes it.
  win_rows_.resize(cfg_.miss_interval, n_features_ > 0 ? n_features_ + 1 : 0);
  std::fill(win_rows_.flat().begin(), win_rows_.flat().end(), 0.0);
  win_zx_.resize(cfg_.miss_interval, model_.projection_dim());
  win_zx_gen_.assign(cfg_.miss_interval, 0);
  win_est_.assign(cfg_.miss_interval, 0.0);
  win_clean_.assign(cfg_.miss_interval, 1);
  win_start_ = 0;
  win_count_ = 0;
  prev_estimate_ = 0.0;
  have_prev_ = false;
  pmc_hold_.reset();
  last_im_value_ = 0.0;
  have_last_im_ = false;
  im_repeats_ = 0;
}

bool DynamicTrr::plausible_reading(double value) const {
  if (!std::isfinite(value)) return false;
  if (p_upper_ <= p_bottom_) return true;  // no band captured (legacy model)
  return value >= p_bottom_ && value <= p_upper_;
}

bool DynamicTrr::stuck_reading(double value, double estimate) {
  if (have_last_im_ && math::exact_eq(value, last_im_value_)) {
    ++im_repeats_;
  } else {
    im_repeats_ = 1;
    last_im_value_ = value;
    have_last_im_ = true;
  }
  if (im_repeats_ <= cfg_.stuck_limit || p_upper_ <= p_bottom_) return false;
  const double range = std::max(1e-9, p_upper_ - p_bottom_);
  return std::fabs(value - estimate) > cfg_.stuck_disagreement * range;
}

DynamicTrr::StepPrep DynamicTrr::step_prepare(std::span<const double> pmcs,
                                              std::optional<double> im_reading) {
  // Process-wide telemetry (registry lookups resolved once): aggregate
  // degradation/cold-start totals mirroring the per-instance diagnostic
  // counters.
  static obs::Counter& steps_total =
      obs::Registry::instance().counter("core.dynamic_trr.steps");
  static obs::Counter& rejected_total =
      obs::Registry::instance().counter("core.dynamic_trr.rejected_readings");
  static obs::Counter& substituted_total =
      obs::Registry::instance().counter("core.dynamic_trr.substituted_rows");
  static obs::Counter& cold_total =
      obs::Registry::instance().counter("core.dynamic_trr.cold_starts");
  steps_total.add();

  if (!fitted()) throw std::logic_error("DynamicTrr::step: not trained");
  if (n_features_ > 0 && pmcs.size() != n_features_) {
    throw std::invalid_argument(
        "DynamicTrr::step: expected " + std::to_string(n_features_) +
        " PMC values, got " + std::to_string(pmcs.size()));
  }

  StepPrep prep;
  // Unpack the optional once: GCC's flow analysis cannot track the payload
  // through the guarded derefs below and emits -Wmaybe-uninitialized.
  prep.have_reading = im_reading.has_value();
  prep.reading_value = prep.have_reading ? *im_reading : 0.0;

  // Claim this tick's ring slot (oldest slot recycles once the window is
  // full) and build the row in its reusable storage.
  if (win_rows_.rows() == 0) reset_stream();
  if (win_rows_.cols() != pmcs.size() + 1) {
    // Legacy model with no captured feature width: size the ring lazily.
    win_rows_.resize(cfg_.miss_interval, pmcs.size() + 1);
    std::fill(win_rows_.flat().begin(), win_rows_.flat().end(), 0.0);
    std::fill(win_zx_gen_.begin(), win_zx_gen_.end(), 0);
  }
  if (win_count_ < cfg_.miss_interval) {
    prep.slot = ring_index(win_count_);
    ++win_count_;
  } else {
    prep.slot = win_start_;
    win_start_ = (win_start_ + 1) % cfg_.miss_interval;
  }
  const std::size_t f = pmcs.size();
  const auto feat = win_rows_.row(prep.slot);
  std::copy(pmcs.begin(), pmcs.end(), feat.begin());
  win_est_[prep.slot] = 0.0;
  win_zx_gen_[prep.slot] = 0;  // the row changes below; reproject on pack

  // --- input validation / graceful degradation (no-op on clean input) ---
  // A degraded tick holds the last good row and keeps this window out of
  // fine-tuning.
  const bool held = pmc_hold_.apply(feat.first(f));
  if (held) {
    substituted_rows_.add();
    substituted_total.add();
  }
  win_clean_[prep.slot] = held ? 0 : 1;
  if (prep.have_reading && !plausible_reading(prep.reading_value)) {
    // Spike / garbage / non-finite reading: keep predicting instead of
    // superseding.
    rejected_readings_.add();
    rejected_total.add();
    prep.have_reading = false;
  }

  // Finish this tick's row: [PMC..., P'_prev]. Before the first estimate
  // we use the IM reading if present, else the training-label mean (a
  // physically plausible cold-start prior).
  double prev = prev_estimate_;
  if (!have_prev_) {
    if (prep.have_reading) {
      prev = prep.reading_value;
    } else {
      prev = label_mean_;
      cold_starts_.add();
      cold_total.add();
    }
  }
  feat[f] = prev;
  prep.rows = win_count_;
  return prep;
}

void DynamicTrr::pack_window_into(math::Matrix& out,
                                  std::size_t row_offset) const {
  for (std::size_t r = 0; r < win_count_; ++r) {
    const auto src = win_rows_.row(ring_index(r));
    std::copy(src.begin(), src.end(), out.row(row_offset + r).begin());
  }
}

void DynamicTrr::pack_projection_into(math::Matrix& out,
                                      std::size_t row_offset) {
  const std::uint64_t gen = model_.generation();
  x_scratch_.resize(win_rows_.cols());
  for (std::size_t r = 0; r < win_count_; ++r) {
    const std::size_t s = ring_index(r);
    const auto zx = win_zx_.row(s);
    if (win_zx_gen_[s] != gen) {
      model_.project_input_row_into(win_rows_.row(s), zx, x_scratch_);
      win_zx_gen_[s] = gen;
    }
    std::copy(zx.begin(), zx.end(), out.row(row_offset + r).begin());
  }
}

double DynamicTrr::predict_prepared() {
  // Predict over the current (possibly still-filling) window; the last
  // step's output is this tick's estimate. All buffers are member scratch —
  // after warm-up this path performs zero heap allocations.
  zx_scratch_.resize(win_count_, model_.projection_dim());
  pack_projection_into(zx_scratch_, 0);
  model_.predict_projected_into(zx_scratch_, 1, preds_scratch_, ws_);
  return preds_scratch_(0, win_count_ - 1);
}

double DynamicTrr::predict_prepared_cheap(const StepPrep& prep) const {
  if (!cheap_.fitted()) {
    throw std::logic_error(
        "DynamicTrr::predict_prepared_cheap: cheap model not trained "
        "(enable train_cheap_model)");
  }
  // The ring row step_prepare just built is already [PMC..., P'_prev];
  // the tree walk reads it in place — zero allocations, no scratch.
  return cheap_.predict_one(win_rows_.row(prep.slot));
}

void DynamicTrr::set_use_cheap(bool on) {
  if (on && !cheap_.fitted()) {
    throw std::logic_error(
        "DynamicTrr::set_use_cheap: cheap model not trained "
        "(enable train_cheap_model)");
  }
  use_cheap_ = on;
}

DynamicTrr::Commit DynamicTrr::step_commit(const StepPrep& prep,
                                           double raw_estimate) {
  static obs::Counter& rejected_total =
      obs::Registry::instance().counter("core.dynamic_trr.rejected_readings");

  bool have_reading = prep.have_reading;
  double estimate = raw_estimate;
  if (!std::isfinite(estimate)) {
    estimate = have_prev_ ? prev_estimate_ : label_mean_;
  } else if (p_upper_ > p_bottom_) {
    estimate = std::clamp(estimate, p_bottom_, p_upper_);
  }

  if (have_reading && stuck_reading(prep.reading_value, estimate)) {
    // Stuck sensor: the same value keeps arriving while the model has
    // drifted away — trust the prediction.
    rejected_readings_.add();
    rejected_total.add();
    have_reading = false;
  }

  if (have_reading) {
    // A measured value supersedes the prediction and, per §4.2.2, triggers
    // an online fine-tune on the completed window: labels are the window's
    // estimates with the final one replaced by the measurement. After an IM
    // dropout the window keeps sliding, so the next good reading fine-tunes
    // on whatever window it completes. Windows holding substituted PMC rows
    // are not trained on. The sample is packed straight from the ring so
    // batched callers (which never fill steps_scratch_) fine-tune on the
    // same bytes the unbatched path would.
    estimate = prep.reading_value;
    // Cheap-path ticks skip fine-tune: the LSTM was not consulted, and the
    // whole point of sparse mode is not to pay its training cost either.
    if (cfg_.online_finetune && !use_cheap_ &&
        win_count_ == cfg_.miss_interval &&
        std::all_of(win_clean_.begin(), win_clean_.end(),
                    [](unsigned char c) { return c != 0; })) {
      data::SequenceSample& s = finetune_window_;
      s.steps.resize(win_count_, win_rows_.cols());
      pack_window_into(s.steps, 0);
      s.labels.resize(win_count_);
      for (std::size_t r = 0; r + 1 < win_count_; ++r) {
        s.labels[r] = win_est_[ring_index(r)];
      }
      s.labels.back() = estimate;
      model_.fit(std::span<const data::SequenceSample>(&s, 1),
                 /*reset=*/false, cfg_.finetune_epochs);
      finetunes_.add();
    }
  }

  win_est_[prep.slot] = estimate;
  prev_estimate_ = estimate;
  have_prev_ = true;
  return {estimate, have_reading};
}

DynamicTrr::Commit DynamicTrr::step(std::span<const double> pmcs,
                                    std::optional<double> im_reading) {
  static obs::Histogram& step_hist =
      obs::Registry::instance().histogram("core.dynamic_trr.step_ns");
  const obs::Span span(step_hist);
  const StepPrep prep = step_prepare(pmcs, im_reading);
  const double raw =
      use_cheap_ ? predict_prepared_cheap(prep) : predict_prepared();
  return step_commit(prep, raw);
}

}  // namespace highrpm::core
