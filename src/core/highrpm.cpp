#include "highrpm/core/highrpm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "highrpm/math/stats.hpp"
#include "highrpm/obs/obs.hpp"

namespace highrpm::core {

namespace {

DynamicTrrConfig lane_trr_config(const HighRpmConfig& cfg) {
  DynamicTrrConfig d = cfg.dynamic_trr;
  d.miss_interval = cfg.miss_interval;
  // Sparse mode routes predicts through the DT ResModel, so an adaptive
  // facade must always train it.
  if (cfg.adaptive) d.train_cheap_model = true;
  return d;
}

}  // namespace

HighRpm::HighRpm(HighRpmConfig cfg)
    : cfg_(std::move(cfg)),
      lane_{.trr = DynamicTrr(lane_trr_config(cfg_)),
            .tenant_hold = {},
            .ctl = std::nullopt},
      srr_(cfg_.srr),
      tenant_srr_([&] {
        SrrConfig t = cfg_.tenant_srr;
        // The attribution head's width is the tenant count, whatever the
        // caller left in tenant_srr.outputs.
        if (cfg_.tenants > 0) t.outputs = cfg_.tenants;
        return t;
      }()),
      sampler_(cfg_.sampler) {
  if (cfg_.tenants > kMaxTenants) {
    throw std::invalid_argument("HighRpm: tenants exceeds kMaxTenants");
  }
  if (cfg_.tenants > 0 && cfg_.self_cal.enabled) {
    const auto& sc = cfg_.self_cal;
    if (sc.buffer_ticks == 0 || sc.min_buffered > sc.buffer_ticks ||
        !(sc.ewma_alpha > 0.0) || sc.ewma_alpha > 1.0) {
      throw std::invalid_argument("HighRpm: bad self_cal config");
    }
    selfcal_rows_ =
        math::Matrix(sc.buffer_ticks, cfg_.tenants * sim::kNumPmcEvents);
    selfcal_node_w_.resize(sc.buffer_ticks);
  }
  if (cfg_.adaptive) {
    adapt::ControllerConfig acfg = cfg_.adapt;
    // Decisions must land on ring-window boundaries.
    acfg.window = cfg_.miss_interval;
    lane_.ctl.emplace(acfg);
  }
}

void HighRpm::initial_learning(
    std::span<const measure::CollectedRun> runs) {
  const obs::Span span("core.highrpm.initial_learning_ns");
  if (runs.empty()) {
    throw std::invalid_argument("HighRpm::initial_learning: no runs");
  }
  // DynamicTRR: windows per run over dense node labels.
  std::vector<math::Matrix> pmcs;
  std::vector<std::vector<double>> node_labels;
  for (const auto& run : runs) {
    pmcs.push_back(run.dataset.features());
    node_labels.push_back(run.dataset.target("P_NODE"));
  }
  lane_.trr.train(pmcs, node_labels);

  // SRR: pooled (and latent-scale-augmented) samples across runs, with the
  // TRR restoration of each run as the bi-directional node-power input —
  // at monitoring time SRR only ever sees restored node power, so training
  // on it keeps the input distributions matched (paper Fig 3).
  StaticTrrConfig scfg = cfg_.static_trr;
  scfg.miss_interval = cfg_.miss_interval;
  const auto set = build_srr_training_set(runs, cfg_.srr, scfg);
  srr_.fit(set.x, set.p_node, set.p_cpu, set.p_mem);
  reset_stream();
}

std::vector<double> HighRpm::static_restore(
    const measure::CollectedRun& run) const {
  StaticTrrConfig sc = cfg_.static_trr;
  sc.miss_interval = cfg_.miss_interval;
  return restore_node_power(run, sc);
}

void HighRpm::active_learning(const measure::CollectedRun& run) {
  const obs::Span span("core.highrpm.active_learning_ns");
  if (!trained()) {
    throw std::logic_error("HighRpm::active_learning: run initial_learning first");
  }
  const auto restored = static_restore(run);
  const auto drawn = sampler_.draw(run.measured);
  const auto& features = run.dataset.features();
  // Reinforcement samples must be usable numbers: drop any tick whose
  // restoration or feature row came back non-finite (possible when the
  // run's sensors were faulty).
  std::vector<std::size_t> reinforcement;
  reinforcement.reserve(drawn.size());
  for (const std::size_t t : drawn) {
    if (std::isfinite(restored[t]) && math::all_finite(features.row(t))) {
      reinforcement.push_back(t);
    }
  }
  if (reinforcement.size() < cfg_.miss_interval) return;

  // --- fine-tune DynamicTRR on restored node power over the drawn span ---
  // Windows must be contiguous, so fine-tune on the contiguous stretch
  // covering the reinforcement draw.
  const std::size_t lo = reinforcement.front();
  const std::size_t hi = reinforcement.back();
  if (hi - lo + 1 >= cfg_.miss_interval) {
    const std::size_t n = hi - lo + 1;
    math::Matrix sub(n, features.cols());
    std::vector<double> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(features.row(lo + i).begin(), features.row(lo + i).end(),
                sub.row(i).begin());
      labels[i] = restored[lo + i];
    }
    // The stretch may still cover degraded ticks between the drawn indices
    // (NaN features or non-finite restorations); skip the TRR fine-tune
    // rather than training on garbage.
    if (math::all_finite(sub.flat()) && math::all_finite(labels)) {
      auto windows = data::make_windows_with_prev_label(
          sub, labels, cfg_.miss_interval, labels[0]);
      // Keep the fine-tune cheap: cap the window count.
      if (windows.size() > 64) windows.resize(64);
      lane_.trr.fine_tune(windows, cfg_.active_finetune_epochs);
    }
  }

  // --- fine-tune SRR with consistency-calibrated pseudo-labels ---
  math::Matrix sx(reinforcement.size(), features.cols());
  std::vector<double> s_node(reinforcement.size());
  std::vector<double> s_cpu(reinforcement.size());
  std::vector<double> s_mem(reinforcement.size());
  for (std::size_t i = 0; i < reinforcement.size(); ++i) {
    const std::size_t t = reinforcement[i];
    std::copy(features.row(t).begin(), features.row(t).end(),
              sx.row(i).begin());
    s_node[i] = restored[t];
    const auto est = srr_.predict_one(features.row(t), s_node[i]);
    // Rescale the component split so it sums to node - P_Other: the node
    // reading is trusted (it is measurement-derived), the split ratio is
    // the model's.
    const double budget = std::max(1.0, s_node[i] - cfg_.p_other_w);
    const double total = std::max(1e-6, est.cpu_w + est.mem_w);
    s_cpu[i] = est.cpu_w * budget / total;
    s_mem[i] = est.mem_w * budget / total;
  }
  srr_.fine_tune(sx, s_node, s_cpu, s_mem, cfg_.active_finetune_epochs);
  ++al_rounds_;
}

LogRestoration HighRpm::restore_log(const measure::CollectedRun& run) const {
  const obs::Span span("core.highrpm.restore_log_ns");
  if (!srr_.fitted()) {
    throw std::logic_error("HighRpm::restore_log: run initial_learning first");
  }
  LogRestoration out;
  out.node_w = static_restore(run);
  const auto& features = run.dataset.features();
  out.cpu_w.resize(features.rows());
  out.mem_w.resize(features.rows());
  // Degraded rows are held, the offline mirror of on_tick's hold — SRR
  // would otherwise split NaN.
  RowHold hold;
  std::vector<double> row(features.cols());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const auto src = features.row(r);
    std::copy(src.begin(), src.end(), row.begin());
    hold.apply(row);
    const auto est = srr_.predict_one(row, out.node_w[r]);
    out.cpu_w[r] = est.cpu_w;
    out.mem_w[r] = est.mem_w;
  }
  return out;
}

void HighRpm::fit_attribution(std::span<const measure::CollectedRun> runs) {
  const obs::Span span("core.highrpm.fit_attribution_ns");
  if (cfg_.tenants == 0) {
    throw std::logic_error("HighRpm::fit_attribution: cfg.tenants is 0");
  }
  if (runs.empty()) {
    throw std::invalid_argument("HighRpm::fit_attribution: no runs");
  }
  for (const auto& run : runs) {
    if (run.num_tenants != cfg_.tenants) {
      throw std::invalid_argument(
          "HighRpm::fit_attribution: run tenant count != cfg.tenants");
    }
  }
  StaticTrrConfig scfg = cfg_.static_trr;
  scfg.miss_interval = cfg_.miss_interval;
  const auto set =
      build_attribution_training_set(runs, tenant_srr_.config(), scfg);
  tenant_srr_.fit_multi(set.x, set.p_node, set.targets);
  // A fresh head means fresh drift state: old buffered ticks and the old
  // EWMA describe the pre-fit model.
  selfcal_count_ = 0;
  selfcal_head_ = 0;
  drift_ewma_pct_ = 0.0;
  drift_seeded_ = false;
  selfcal_cooldown_ = 0;
}

void HighRpm::reset_stream() {
  lane_.reset();
  // Self-calibration observations belong to the stream, not the model: a new
  // stream (or a cloned per-node instance) starts with an empty buffer and
  // an unseeded drift EWMA. The fine-tuned weights themselves persist.
  selfcal_count_ = 0;
  selfcal_head_ = 0;
  drift_ewma_pct_ = 0.0;
  drift_seeded_ = false;
  selfcal_cooldown_ = 0;
}

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::optional<double> im_reading) {
  static obs::Histogram& tick_hist =
      obs::Registry::instance().histogram("core.highrpm.on_tick_ns");
  static obs::Counter& ticks_total =
      obs::Registry::instance().counter("core.highrpm.ticks");
  const obs::Span span(tick_hist);
  ticks_total.add();
  if (!trained()) {
    throw std::logic_error("HighRpm::on_tick: run initial_learning first");
  }
  // The lane holds a corrupt PMC row and rejects a non-finite reading;
  // SRR splits the row the window holds, exactly as the fleet does.
  const DynamicTrr::StepPrep prep = lane_.prepare(pmcs, im_reading);
  const DynamicTrr::Commit commit = lane_.commit(prep, lane_.predict(prep));
  PowerEstimate est;
  est.node_w = commit.estimate;
  est.measured = commit.accepted;
  const auto comp =
      srr_.predict_one(lane_.trr.prepared_row(prep), est.node_w, srr_scratch_);
  est.cpu_w = comp.cpu_w;
  est.mem_w = comp.mem_w;
  return est;
}

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::span<const double> tenant_pmcs,
                               std::optional<double> im_reading) {
  if (cfg_.tenants == 0) {
    throw std::logic_error("HighRpm::on_tick(tenants): cfg.tenants is 0");
  }
  if (!tenant_srr_.fitted()) {
    throw std::logic_error("HighRpm::on_tick(tenants): fit_attribution first");
  }
  if (tenant_pmcs.size() != cfg_.tenants * sim::kNumPmcEvents) {
    throw std::invalid_argument(
        "HighRpm::on_tick(tenants): tenant row size != tenants * events");
  }
  tenant_row_.assign(tenant_pmcs.begin(), tenant_pmcs.end());
  lane_.tenant_hold.apply(tenant_row_);
  const std::span<const double> trow = tenant_row_;

  // The node pipeline is byte-identical to the 2-arg overload — attribution
  // rides on top of it, it never perturbs node/component estimates or
  // adaptive decisions.
  PowerEstimate est = on_tick(pmcs, im_reading);
  est.tenants = cfg_.tenants;
  double raw_total = 0.0;
  tenant_srr_.predict_one_into(
      trow, est.node_w, std::span<double>(est.tenant_w.data(), cfg_.tenants),
      tenant_scratch_, &raw_total);

  if (cfg_.self_cal.enabled) {
    if (selfcal_cooldown_ > 0) --selfcal_cooldown_;
    if (est.measured) {
      // Buffer the measured tick (ring, oldest overwritten).
      const auto slot = selfcal_rows_.row(selfcal_head_);
      std::copy(trow.begin(), trow.end(), slot.begin());
      selfcal_node_w_[selfcal_head_] = est.node_w;
      selfcal_head_ = (selfcal_head_ + 1) % selfcal_rows_.rows();
      selfcal_count_ = std::min(selfcal_count_ + 1, selfcal_rows_.rows());
      // Drift: the head's clamped pre-projection sum vs the trusted IM
      // budget. The projection would hide exactly this error, which is why
      // the signal is taken before it.
      const double budget = std::max(1.0, est.node_w - cfg_.p_other_w);
      const double drift_pct = 100.0 * std::abs(raw_total - budget) / budget;
      drift_ewma_pct_ = drift_seeded_ ? (1.0 - cfg_.self_cal.ewma_alpha) *
                                                drift_ewma_pct_ +
                                            cfg_.self_cal.ewma_alpha * drift_pct
                                      : drift_pct;
      drift_seeded_ = true;
      if (drift_ewma_pct_ > cfg_.self_cal.drift_threshold_pct &&
          selfcal_count_ >= cfg_.self_cal.min_buffered &&
          selfcal_cooldown_ == 0) {
        recalibrate_attribution();
        selfcal_triggers_.add();
        static obs::Counter& triggers_total =
            obs::Registry::instance().counter("core.highrpm.selfcal_triggers");
        triggers_total.add();
        selfcal_cooldown_ = cfg_.self_cal.cooldown_ticks;
        // Re-seed the EWMA: the old level measured the pre-fix model.
        drift_ewma_pct_ = 0.0;
        drift_seeded_ = false;
      }
    }
  }
  return est;
}

void HighRpm::recalibrate_attribution() {
  const obs::Span span("core.highrpm.selfcal_finetune_ns");
  const std::size_t n = selfcal_count_;
  const std::size_t cap = selfcal_rows_.rows();
  const std::size_t start = (selfcal_head_ + cap - n) % cap;
  math::Matrix x(n, selfcal_rows_.cols());
  std::vector<double> p_node(n);
  math::Matrix targets(n, cfg_.tenants);
  std::vector<double> split(cfg_.tenants);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = (start + i) % cap;
    const auto src = selfcal_rows_.row(s);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    p_node[i] = selfcal_node_w_[s];
    // Pseudo-labels: the head's own split rescaled so it sums to the
    // measured budget — the same consistency calibration active_learning
    // applies to the component head. The reading is trusted; the ratio is
    // the model's.
    tenant_srr_.predict_one_into(src, p_node[i], split, tenant_scratch_);
    const double budget = std::max(1.0, p_node[i] - cfg_.p_other_w);
    double total = 0.0;
    for (const double v : split) total += v;
    total = std::max(1e-6, total);
    for (std::size_t k = 0; k < cfg_.tenants; ++k) {
      targets(i, k) = split[k] * budget / total;
    }
  }
  tenant_srr_.fine_tune_multi(x, p_node, targets, cfg_.self_cal.epochs);
}

}  // namespace highrpm::core
