#include "highrpm/core/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "highrpm/obs/obs.hpp"
#include "highrpm/runtime/parallel_for.hpp"

namespace highrpm::core {

FleetStepper::FleetStepper(const HighRpm& golden, std::size_t nodes,
                           FleetConfig cfg)
    : cfg_(cfg),
      srr_(golden.srr()),
      tenant_srr_(golden.attribution_srr()),
      shared_model_(golden.dynamic_trr().model()) {
  if (!golden.trained()) {
    throw std::invalid_argument("FleetStepper: golden instance untrained");
  }
  if (golden.config().tenants > 0 && golden.attribution_trained()) {
    // Self-calibration mutates the attribution head online; the fleet
    // shares one const head across all shards, so a self-calibrating
    // golden cannot be batched — run it through the serial facade.
    if (golden.config().self_cal.enabled) {
      throw std::invalid_argument(
          "FleetStepper: self-calibrating attribution requires the serial "
          "facade (the fleet shares a const attribution head)");
    }
    tenants_ = golden.config().tenants;
  }
  if (nodes == 0) {
    throw std::invalid_argument("FleetStepper: fleet must have >= 1 node");
  }
  // Boundary contract (see FleetConfig::shard_lanes): zero is a config
  // error, not a request for one-lane shards; above-fleet values mean "one
  // full shard".
  if (cfg_.shard_lanes == 0) {
    throw std::invalid_argument(
        "FleetStepper: FleetConfig::shard_lanes must be >= 1");
  }
  if (cfg_.shard_lanes > nodes) cfg_.shard_lanes = nodes;
  // With online fine-tuning off, no lane ever mutates its RNN weights, so
  // every lane's model stays byte-identical to the golden copy and windows
  // can batch through shared_model_. With it on, weights diverge per lane
  // after the first accepted reading — each lane must predict with its own
  // model.
  shared_rnn_ = !golden.config().dynamic_trr.online_finetune;
  Lane fresh = golden.lane();
  fresh.reset();
  lanes_.assign(nodes, fresh);
  const std::size_t n_shards = (nodes + cfg_.shard_lanes - 1) / cfg_.shard_lanes;
  shards_.resize(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    Shard& ss = shards_[s];
    ss.begin = s * cfg_.shard_lanes;
    ss.end = std::min(nodes, ss.begin + cfg_.shard_lanes);
    ss.ids.resize(ss.end - ss.begin);
    for (std::size_t li = 0; li < ss.ids.size(); ++li) {
      ss.ids[li] = ss.begin + li;
    }
  }
}

void FleetStepper::reset_streams() {
  for (auto& lane : lanes_) lane.reset();
}

void FleetStepper::step_tick(const math::Matrix& pmcs,
                             std::span<const std::optional<double>> readings,
                             std::span<PowerEstimate> out,
                             const ShardHooks& hooks,
                             const math::Matrix* tenant_pmcs) {
  static obs::Histogram& shard_hist =
      obs::Registry::instance().histogram("core.fleet.shard_tick_ns");
  if (pmcs.rows() != lanes_.size() || readings.size() != lanes_.size() ||
      out.size() != lanes_.size()) {
    throw std::invalid_argument("FleetStepper::step_tick: size mismatch");
  }
  if (tenant_pmcs && tenant_pmcs->rows() != lanes_.size()) {
    throw std::invalid_argument(
        "FleetStepper::step_tick: tenant matrix row count != fleet size");
  }
  // One parallel_for index per shard; each shard owns its lane range and
  // scratch, so scheduling only changes when a shard runs, never what it
  // computes. The hooks run on the executing thread so alloc-trace arming
  // meters exactly the shard work, not the pool dispatch. A shard's lanes
  // are consecutive rows of the fleet matrix, so the shard tick is a
  // step_cohort over positional subspans — no staging copies.
  runtime::parallel_for(shards_.size(), [&](std::size_t s) {
    Shard& ss = shards_[s];
    const std::size_t lanes = ss.end - ss.begin;
    if (hooks.before) hooks.before(s);
    {
      const obs::Span span(shard_hist);
      step_cohort(ss.ids, pmcs, ss.begin, readings.subspan(ss.begin, lanes),
                  out.subspan(ss.begin, lanes), ss.scratch, tenant_pmcs,
                  ss.begin);
    }
    if (hooks.after) hooks.after(s);
  });
}

void FleetStepper::step_cohort(std::span<const std::size_t> lane_ids,
                               const math::Matrix& pmcs, std::size_t pmc_row0,
                               std::span<const std::optional<double>> readings,
                               std::span<PowerEstimate> out, Cohort& scratch,
                               const math::Matrix* tenant_pmcs,
                               std::size_t tenant_row0) {
  static obs::Counter& lane_ticks =
      obs::Registry::instance().counter("core.fleet.lane_ticks");
  const std::size_t lanes = lane_ids.size();
  if (lanes == 0) return;
  if (pmcs.rows() < pmc_row0 + lanes || readings.size() != lanes ||
      out.size() != lanes) {
    throw std::invalid_argument("FleetStepper::step_cohort: size mismatch");
  }
  if (tenant_pmcs) {
    if (tenants_ == 0) {
      throw std::logic_error(
          "FleetStepper::step_cohort: tenant rows given but the golden "
          "instance carried no trained attribution head");
    }
    if (tenant_pmcs->cols() != tenants_ * sim::kNumPmcEvents ||
        tenant_pmcs->rows() < tenant_row0 + lanes) {
      throw std::invalid_argument(
          "FleetStepper::step_cohort: tenant matrix shape mismatch");
    }
  }
  lane_ticks.add(lanes);
  const std::size_t f = pmcs.cols();
  Cohort& ss = scratch;
  ss.rows.resize(lanes, f);
  ss.preps.resize(lanes);
  ss.raw.resize(lanes);
  ss.node_w.resize(lanes);
  ss.comp.resize(lanes);

  // Phase 1 per lane: prepare on the raw inputs (the lane holds a corrupt
  // row and rejects a non-finite reading), then stage the held row for
  // the batched SRR.
  for (std::size_t li = 0; li < lanes; ++li) {
    Lane& lane = lanes_[lane_ids[li]];
    ss.preps[li] = lane.prepare(pmcs.row(pmc_row0 + li), readings[li]);
    const auto row = lane.trr.prepared_row(ss.preps[li]);
    std::copy(row.begin(), row.end(), ss.rows.row(li).begin());
  }

  // Phase 2: predict. Shared-weights fleets with lockstep windows batch
  // the whole cohort through one GEMM per RNN layer; otherwise each lane
  // predicts with its own model (weights may have diverged, or fills may
  // differ after a mid-stream reset).
  const std::size_t window = ss.preps[0].rows;
  bool lockstep = true;
  for (std::size_t li = 1; li < lanes; ++li) {
    if (ss.preps[li].rows != window) {
      lockstep = false;
      break;
    }
  }
  // Adaptive fleets route sparse-mode lanes through the cheap DT path;
  // any such lane keeps the cohort off the batched GEMM this tick (the
  // remaining dense lanes still produce bit-identical estimates through
  // the per-lane path — the batch is a throughput choice, never a result
  // choice).
  bool any_cheap = false;
  for (std::size_t li = 0; li < lanes; ++li) {
    if (lanes_[lane_ids[li]].trr.use_cheap()) {
      any_cheap = true;
      break;
    }
  }
  if (shared_rnn_ && lockstep && window > 0 && !any_cheap) {
    // Each lane's ring caches its rows' layer-0 projections, so a steady
    // tick projects only the row step_prepare just wrote; the batch starts
    // at the recurrence.
    ss.zx_batch.resize(lanes * window, shared_model_.projection_dim());
    for (std::size_t li = 0; li < lanes; ++li) {
      lanes_[lane_ids[li]].trr.pack_projection_into(ss.zx_batch, li * window);
    }
    shared_model_.predict_projected_into(ss.zx_batch, lanes, ss.rnn_out,
                                         ss.rnn_ws);
    for (std::size_t li = 0; li < lanes; ++li) {
      ss.raw[li] = ss.rnn_out(li, window - 1);
    }
  } else {
    for (std::size_t li = 0; li < lanes; ++li) {
      ss.raw[li] = lanes_[lane_ids[li]].predict(ss.preps[li]);
    }
  }

  // Phase 3 per lane: commit (clamps, stuck-sensor logic, measurement
  // supersede + fine-tune, controller observe) and the measured flag.
  for (std::size_t li = 0; li < lanes; ++li) {
    const DynamicTrr::Commit commit =
        lanes_[lane_ids[li]].commit(ss.preps[li], ss.raw[li]);
    ss.node_w[li] = commit.estimate;
    out[li].node_w = commit.estimate;
    out[li].measured = commit.accepted;
  }

  // Phase 4: one SRR GEMM per MLP layer for the whole cohort.
  srr_.predict_batch_into(ss.rows, ss.node_w, ss.comp, ss.srr);
  for (std::size_t li = 0; li < lanes; ++li) {
    out[li].cpu_w = ss.comp[li].cpu_w;
    out[li].mem_w = ss.comp[li].mem_w;
    out[li].tenants = 0;
  }
  if (!tenant_pmcs) return;

  // Phase 5: K-way attribution — each lane holds its copy of the tenant
  // row (as the serial facade's 3-arg on_tick does), then one attribution
  // GEMM per MLP layer for the whole cohort on the committed node powers.
  ss.trows.resize(lanes, tenant_pmcs->cols());
  for (std::size_t li = 0; li < lanes; ++li) {
    const auto dst = ss.trows.row(li);
    const auto src = tenant_pmcs->row(tenant_row0 + li);
    std::copy(src.begin(), src.end(), dst.begin());
    lanes_[lane_ids[li]].tenant_hold.apply(dst);
  }
  tenant_srr_.predict_batch_multi_into(ss.trows, ss.node_w, ss.tenant_out,
                                       ss.tsrr);
  for (std::size_t li = 0; li < lanes; ++li) {
    out[li].tenants = tenants_;
    const auto row = ss.tenant_out.row(li);
    std::copy(row.begin(), row.end(), out[li].tenant_w.begin());
  }
}

}  // namespace highrpm::core
