// highrpm::core::FleetStepper — batched structure-of-arrays stepping of N
// monitored nodes.
//
// FleetStepper runs core::tick_cohort — the kernel HighRpm::on_tick runs
// on its one lane — over a whole fleet: nodes are grouped into fixed
// shards, each shard is one cohort (one GEMM per RNN/MLP layer), and
// shards execute in parallel on the runtime thread pool.
//
// Determinism contract: every lane's outputs are byte-identical to the
// serial per-node path (a HighRpm clone stepped alone) at every fleet
// size, shard size, and thread count. The batched kernels evaluate the
// scalar path's expressions in the scalar path's operand order, lanes
// never read each other's state, and the shard partition is a pure
// function of (nodes, shard_lanes) — never of the thread count.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/core/highrpm.hpp"

namespace highrpm::core {

struct FleetConfig {
  /// Max lanes per shard; one shard is one parallel_for index. The batch
  /// grouping cannot change results (batched kernels are bit-identical to
  /// scalar), only the GEMM shapes and the parallel grain.
  ///
  /// Boundary contract (validated by the FleetStepper constructor):
  /// shard_lanes == 0 is rejected with std::invalid_argument; values above
  /// the fleet size are clamped to it (one full shard: "don't shard").
  std::size_t shard_lanes = 64;
};

class FleetStepper {
 public:
  /// Build a fleet of `nodes` lanes from a trained golden instance: each
  /// lane is a reset copy of the golden's lane (per-node window/stream
  /// state, per-node weights when online fine-tuning is on, a fresh
  /// controller when adaptive, and per-node self-calibration when the
  /// golden self-calibrates); the SRR and attribution heads are shared —
  /// streaming never mutates them (a self-calibrating lane fine-tunes its
  /// own copy).
  FleetStepper(const HighRpm& golden, std::size_t nodes, FleetConfig cfg = {});

  /// Per-shard callbacks invoked on the thread executing the shard,
  /// immediately before and after its work — the hook the fleet bench uses
  /// for per-thread alloc-trace arming.
  struct ShardHooks {
    std::function<void(std::size_t)> before;
    std::function<void(std::size_t)> after;
  };

  /// Step every lane one tick. pmcs is nodes x F (row i = node i's sampled
  /// PMC rates); readings[i] is node i's IM reading when this tick carried
  /// one; out[i] receives node i's estimate. Zero heap allocations per
  /// shard once the shard scratch is warm (steady state).
  ///
  /// K-way attribution: when the golden instance carried a trained
  /// attribution head, pass tenant_pmcs (nodes x K*kNumPmcEvents, row i =
  /// node i's concatenated per-cgroup rows) and out[i] additionally gets
  /// its tenant split — bit-identical to the serial facade's 3-arg
  /// on_tick, batched as one extra GEMM per MLP layer per shard (per-lane
  /// predicts when the lanes self-calibrate). Leaving tenant_pmcs null
  /// skips attribution (out[i].tenants stays 0).
  void step_tick(const math::Matrix& pmcs,
                 std::span<const std::optional<double>> readings,
                 std::span<PowerEstimate> out, const ShardHooks& hooks = {},
                 const math::Matrix* tenant_pmcs = nullptr);

  /// Step an arbitrary cohort of the fleet's lanes one tick — what both
  /// step_tick (one cohort per shard) and the serve daemon's consumer pool
  /// (one cohort per drain cycle) run: core::tick_cohort on this fleet's
  /// lanes and shared models. Arguments and the thread-safety contract are
  /// tick_cohort's; tenant rows without a trained attribution head on the
  /// golden throw std::logic_error.
  void step_cohort(std::span<const std::size_t> lane_ids,
                   const math::Matrix& pmcs, std::size_t pmc_row0,
                   std::span<const std::optional<double>> readings,
                   std::span<PowerEstimate> out, Cohort& scratch,
                   const math::Matrix* tenant_pmcs = nullptr,
                   std::size_t tenant_row0 = 0);

  /// Reset every lane's stream state (new program / new deployment).
  void reset_streams();

  std::size_t nodes() const noexcept { return lanes_.size(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Tenant count of the attribution head carried from the golden instance
  /// (0 when the golden had none).
  std::size_t tenants() const noexcept { return tenants_; }
  /// True when every lane shares one set of RNN weights (online fine-tune
  /// disabled), enabling the one-GEMM-per-layer cross-node fast path.
  bool shared_rnn() const noexcept { return shared_rnn_; }
  /// Lane i's stream state: its DynamicTrr, controller and SelfCal.
  const Lane& lane(std::size_t i) const { return lanes_[i]; }
  /// Lane i's adaptive-sampling controller, or nullptr when the golden
  /// instance was not adaptive. Each lane observes its own committed
  /// estimates, so heterogeneous fleets diverge in mode lane by lane while
  /// every lane's decision stream stays byte-identical to the serial facade.
  const adapt::Controller* lane_controller(std::size_t i) const {
    return lanes_[i].ctl ? &*lanes_[i].ctl : nullptr;
  }

 private:
  /// Per-shard state, owned by exactly one parallel_for index per tick:
  /// the shard's contiguous lane ids and its own Cohort scratch. A shard
  /// tick is just step_cohort over those ids.
  struct Shard {
    std::vector<std::size_t> ids;
    Cohort scratch;
  };

  FleetConfig cfg_;
  /// Shared SRR (streaming never fine-tunes it) and, for shared-weights
  /// fleets, the one RNN every lane's window batches through. Kept as
  /// copies so concurrent shard reads never alias a lane's scratch.
  Srr srr_;
  /// Shared K-way attribution head (copied from the golden; never
  /// mutated — a self-calibrating lane fine-tunes its own copy).
  Srr tenant_srr_;
  std::size_t tenants_ = 0;
  ml::SequenceRegressor shared_model_;
  bool shared_rnn_ = false;
  std::vector<Lane> lanes_;
  std::vector<Shard> shards_;
};

}  // namespace highrpm::core
