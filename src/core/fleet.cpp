#include "highrpm/core/fleet.hpp"

#include <algorithm>
#include <numeric>
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
    const std::size_t begin = s * cfg_.shard_lanes;
    shards_[s].ids.resize(std::min(nodes, begin + cfg_.shard_lanes) - begin);
    std::iota(shards_[s].ids.begin(), shards_[s].ids.end(), begin);
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
    const std::size_t begin = ss.ids.front();
    const std::size_t lanes = ss.ids.size();
    if (hooks.before) hooks.before(s);
    {
      const obs::Span span(shard_hist);
      step_cohort(ss.ids, pmcs, begin, readings.subspan(begin, lanes),
                  out.subspan(begin, lanes), ss.scratch, tenant_pmcs, begin);
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
  const CohortModels models{
      .srr = srr_,
      .head = tenants_ > 0 ? &tenant_srr_ : nullptr,
      .shared_rnn = shared_rnn_ ? &shared_model_ : nullptr};
  tick_cohort(lanes_, lane_ids, models, pmcs, pmc_row0, readings, out,
              scratch, tenant_pmcs, tenant_row0);
  lane_ticks.add(lane_ids.size());
}

}  // namespace highrpm::core
