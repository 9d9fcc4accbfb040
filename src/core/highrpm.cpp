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
            .ctl = std::nullopt,
            .cal = std::nullopt},
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
    lane_.cal.emplace(cfg_.self_cal, cfg_.tenants * sim::kNumPmcEvents);
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
    const double budget = std::max(1.0, s_node[i] - srr_.config().p_other_w);
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
  // A fresh head means fresh drift state: the lane's own head, buffered
  // ticks and EWMA all describe the pre-fit model.
  if (lane_.cal) {
    lane_.cal->reset();
    lane_.cal->head.reset();
  }
}

void HighRpm::reset_stream() { lane_.reset(); }

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::optional<double> im_reading) {
  return tick(pmcs, nullptr, im_reading);
}

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::span<const double> tenant_pmcs,
                               std::optional<double> im_reading) {
  // The kernel rejects tenant rows without a fitted head (logic_error) and
  // of the wrong width (invalid_argument).
  tick_trows_.resize(1, tenant_pmcs.size());
  std::copy(tenant_pmcs.begin(), tenant_pmcs.end(), tick_trows_.row(0).begin());
  return tick(pmcs, &tick_trows_, im_reading);
}

PowerEstimate HighRpm::tick(std::span<const double> pmcs,
                            const math::Matrix* trows,
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
  tick_pmcs_.resize(1, pmcs.size());
  std::copy(pmcs.begin(), pmcs.end(), tick_pmcs_.row(0).begin());
  // A cohort of one lane predicting with its own model.
  const std::size_t id = 0;
  const CohortModels models{
      .srr = srr_,
      .head = tenant_srr_.fitted() ? &tenant_srr_ : nullptr,
      .shared_rnn = nullptr};
  PowerEstimate est;
  tick_cohort(std::span<Lane>(&lane_, 1), std::span<const std::size_t>(&id, 1),
              models, tick_pmcs_, 0,
              std::span<const std::optional<double>>(&im_reading, 1),
              std::span<PowerEstimate>(&est, 1), cohort_, trows);
  return est;
}

}  // namespace highrpm::core
