#include "highrpm/core/lane.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "highrpm/obs/obs.hpp"
#include "highrpm/sim/pmc.hpp"

namespace highrpm::core {

SelfCal::SelfCal(const SelfCalConfig& c, std::size_t row_width) : cfg(c) {
  if (cfg.buffer_ticks == 0 || cfg.min_buffered > cfg.buffer_ticks ||
      !(cfg.ewma_alpha > 0.0) || cfg.ewma_alpha > 1.0) {
    throw std::invalid_argument("SelfCal: bad self_cal config");
  }
  rows = math::Matrix(cfg.buffer_ticks, row_width);
  node_w.resize(cfg.buffer_ticks);
}

void SelfCal::observe(const Srr& shared, std::span<const double> trow,
                      double node_w_in, bool measured, double raw_total) {
  if (cooldown > 0) --cooldown;
  if (!measured) return;
  // Buffer the measured tick (ring, oldest overwritten).
  std::copy(trow.begin(), trow.end(), rows.row(next).begin());
  node_w[next] = node_w_in;
  next = (next + 1) % rows.rows();
  count = std::min(count + 1, rows.rows());
  // Drift: the head's clamped pre-projection sum vs the trusted IM budget.
  // The projection would hide exactly this error, which is why the signal
  // is taken before it.
  const double budget =
      std::max(1.0, node_w_in - effective(shared).config().p_other_w);
  const double drift_pct = 100.0 * std::abs(raw_total - budget) / budget;
  drift_ewma_pct = seeded ? (1.0 - cfg.ewma_alpha) * drift_ewma_pct +
                                cfg.ewma_alpha * drift_pct
                          : drift_pct;
  seeded = true;
  if (drift_ewma_pct > cfg.drift_threshold_pct && count >= cfg.min_buffered &&
      cooldown == 0) {
    if (!head) head.emplace(shared);
    recalibrate();
    triggers.add();
    static obs::Counter& triggers_total =
        obs::Registry::instance().counter("core.highrpm.selfcal_triggers");
    triggers_total.add();
    cooldown = cfg.cooldown_ticks;
    // Re-seed the EWMA: the old level measured the pre-fix model.
    drift_ewma_pct = 0.0;
    seeded = false;
  }
}

void SelfCal::recalibrate() {
  const obs::Span span("core.highrpm.selfcal_finetune_ns");
  const std::size_t k = head->config().outputs;
  const std::size_t cap = rows.rows();
  const std::size_t start = (next + cap - count) % cap;
  math::Matrix x(count, rows.cols());
  std::vector<double> p_node(count);
  math::Matrix targets(count, k);
  std::vector<double> split(k);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = (start + i) % cap;
    const auto src = rows.row(s);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    p_node[i] = node_w[s];
    // Pseudo-labels: the head's own split rescaled so it sums to the
    // measured budget — the same consistency calibration active_learning
    // applies to the component head. The reading is trusted; the ratio is
    // the model's.
    head->predict_one_into(src, p_node[i], split, scratch);
    const double budget = std::max(1.0, p_node[i] - head->config().p_other_w);
    double total = 0.0;
    for (const double v : split) total += v;
    total = std::max(1e-6, total);
    for (std::size_t j = 0; j < k; ++j) {
      targets(i, j) = split[j] * budget / total;
    }
  }
  head->fine_tune_multi(x, p_node, targets, cfg.epochs);
}

void SelfCal::reset() {
  count = next = cooldown = 0;
  drift_ewma_pct = 0.0;
  seeded = false;
}

void Lane::reset() {
  trr.reset_stream();
  tenant_hold.reset();
  if (cal) cal->reset();
  if (ctl) {
    ctl->reset();
    // A fresh controller starts Sparse. Before training the cheap model
    // does not exist yet; routing is then applied by the first
    // post-training reset.
    if (trr.cheap_fitted()) trr.set_use_cheap(ctl->decision().use_cheap);
  }
}

void tick_cohort(std::span<Lane> lanes, std::span<const std::size_t> lane_ids,
                 const CohortModels& models, const math::Matrix& pmcs,
                 std::size_t pmc_row0,
                 std::span<const std::optional<double>> readings,
                 std::span<PowerEstimate> out, Cohort& ss,
                 const math::Matrix* tenant_pmcs, std::size_t tenant_row0) {
  const std::size_t n = lane_ids.size();
  if (n == 0) return;
  if (pmcs.rows() < pmc_row0 + n || readings.size() != n || out.size() != n) {
    throw std::invalid_argument("tick_cohort: size mismatch");
  }
  if (tenant_pmcs && models.head == nullptr) {
    throw std::logic_error("tick_cohort: tenant rows without a trained head");
  }
  if (tenant_pmcs && (tenant_pmcs->rows() < tenant_row0 + n ||
                      tenant_pmcs->cols() != models.head->config().outputs *
                                                 sim::kNumPmcEvents)) {
    throw std::invalid_argument("tick_cohort: tenant matrix shape mismatch");
  }
  ss.rows.resize(n, pmcs.cols());
  ss.preps.resize(n);
  ss.raw.resize(n);
  ss.node_w.resize(n);
  ss.comp.resize(n);

  // Phase 1 per lane: prepare on the raw inputs (holds a corrupt row,
  // rejects a non-finite reading), then stage the held row for SRR.
  for (std::size_t li = 0; li < n; ++li) {
    Lane& lane = lanes[lane_ids[li]];
    ss.preps[li] = lane.trr.step_prepare(pmcs.row(pmc_row0 + li), readings[li]);
    const auto row = lane.trr.prepared_row(ss.preps[li]);
    std::copy(row.begin(), row.end(), ss.rows.row(li).begin());
  }

  // Phase 2: predict. Shared-weights lanes with lockstep windows batch
  // through one GEMM per RNN layer; otherwise each lane predicts with its
  // own cheap tree or LSTM, as routed (weights may have diverged, or fills
  // may differ after a mid-stream reset). The batch is a throughput
  // choice, never a result choice.
  const std::size_t window = ss.preps[0].rows;
  bool batch = models.shared_rnn != nullptr && window > 0;
  for (std::size_t li = 0; li < n && batch; ++li) {
    batch = ss.preps[li].rows == window && !lanes[lane_ids[li]].trr.use_cheap();
  }
  if (batch) {
    // Each lane's ring caches its rows' layer-0 projections, so a steady
    // tick projects only the row step_prepare just wrote; the batch starts
    // at the recurrence.
    ss.zx_batch.resize(n * window, models.shared_rnn->projection_dim());
    for (std::size_t li = 0; li < n; ++li) {
      lanes[lane_ids[li]].trr.pack_projection_into(ss.zx_batch, li * window);
    }
    models.shared_rnn->predict_projected_into(ss.zx_batch, n, ss.rnn_out,
                                              ss.rnn_ws);
    for (std::size_t li = 0; li < n; ++li) {
      ss.raw[li] = ss.rnn_out(li, window - 1);
    }
  } else {
    for (std::size_t li = 0; li < n; ++li) {
      DynamicTrr& trr = lanes[lane_ids[li]].trr;
      ss.raw[li] = trr.use_cheap() ? trr.predict_prepared_cheap(ss.preps[li])
                                   : trr.predict_prepared();
    }
  }

  // Phase 3 per lane: commit (clamps, stuck-sensor logic, measurement
  // supersede + fine-tune), then the controller observes the estimate.
  // Measured ticks are not observed: they return the reading verbatim, so
  // the model-vs-meter bias would register as a volatility jump.
  for (std::size_t li = 0; li < n; ++li) {
    Lane& lane = lanes[lane_ids[li]];
    const DynamicTrr::Commit c = lane.trr.step_commit(ss.preps[li], ss.raw[li]);
    if (lane.ctl && !c.accepted) {
      const auto row = lane.trr.prepared_row(ss.preps[li]);
      if (const auto d = lane.ctl->observe(c.estimate, row)) {
        lane.trr.set_use_cheap(d->use_cheap);
      }
    }
    ss.node_w[li] = c.estimate;
    out[li].node_w = c.estimate;
    out[li].measured = c.accepted;
  }

  // Phase 4: one SRR GEMM per MLP layer for the whole cohort.
  models.srr.predict_batch_into(ss.rows, ss.node_w, ss.comp, ss.srr);
  for (std::size_t li = 0; li < n; ++li) {
    out[li].cpu_w = ss.comp[li].cpu_w;
    out[li].mem_w = ss.comp[li].mem_w;
    out[li].tenants = 0;
  }
  if (!tenant_pmcs) return;

  // Phase 5: K-way attribution of the committed node powers, on the
  // lane-held tenant rows.
  const Srr& shared = *models.head;
  const std::size_t k = shared.config().outputs;
  ss.trows.resize(n, tenant_pmcs->cols());
  bool any_cal = false;
  for (std::size_t li = 0; li < n; ++li) {
    Lane& lane = lanes[lane_ids[li]];
    const auto dst = ss.trows.row(li);
    const auto src = tenant_pmcs->row(tenant_row0 + li);
    std::copy(src.begin(), src.end(), dst.begin());
    lane.tenant_hold.apply(dst);
    any_cal = any_cal || lane.cal.has_value();
    out[li].tenants = k;
  }
  if (!any_cal) {
    // Every lane predicts with the shared head: one GEMM per MLP layer.
    shared.predict_batch_multi_into(ss.trows, ss.node_w, ss.tenant_out,
                                    ss.tsrr);
    for (std::size_t li = 0; li < n; ++li) {
      const auto row = ss.tenant_out.row(li);
      std::copy(row.begin(), row.end(), out[li].tenant_w.begin());
    }
    return;
  }
  // Self-calibrating lanes may own diverged heads and need the raw sum the
  // projection hides: each predicts alone on its effective head.
  for (std::size_t li = 0; li < n; ++li) {
    Lane& lane = lanes[lane_ids[li]];
    const auto trow = ss.trows.row(li);
    const std::span<double> tw(out[li].tenant_w.data(), k);
    SelfCal* cal = lane.cal ? &*lane.cal : nullptr;
    double raw_total = 0.0;
    (cal ? cal->effective(shared) : shared)
        .predict_one_into(trow, ss.node_w[li], tw, cal ? cal->scratch : ss.tone,
                          &raw_total);
    if (cal) {
      cal->observe(shared, trow, ss.node_w[li], out[li].measured, raw_total);
    }
  }
}

}  // namespace highrpm::core
