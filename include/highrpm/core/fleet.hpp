// highrpm::core::FleetStepper — batched structure-of-arrays stepping of N
// monitored nodes.
//
// The per-node streaming path (HighRpm::on_tick) steps one node at a time
// through its core::Lane, then Srr::predict_one — a dot product per output
// unit per node per tick. FleetStepper runs the same lane kernel for a
// whole fleet, batching only the predict and SRR legs: nodes are grouped
// into fixed shards, each shard packs its lanes' ring windows into one
// contiguous batch matrix, the RNN runs one GEMM per layer per shard
// (shared-weights fleets), the SRR MLP runs one GEMM per layer per shard,
// and shards execute in parallel on the runtime thread pool.
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
  /// shard_lanes == 0 is rejected with std::invalid_argument — it used to
  /// be silently rewritten to 1, turning a config typo into a degenerate
  /// one-lane-per-shard fleet. Values above the fleet size are clamped to
  /// the fleet size (one full shard), which is well-defined and what a
  /// "don't shard" request means.
  std::size_t shard_lanes = 64;
};

class FleetStepper {
 public:
  /// Build a fleet of `nodes` lanes from a trained golden instance: each
  /// lane is a reset copy of the golden's lane (per-node window/stream
  /// state, per-node weights when online fine-tuning is on, and a fresh
  /// controller when adaptive); the SRR is shared — streaming never
  /// mutates its weights.
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
  /// on_tick, batched as one extra GEMM per MLP layer per shard. Leaving
  /// tenant_pmcs null skips attribution (out[i].tenants stays 0).
  void step_tick(const math::Matrix& pmcs,
                 std::span<const std::optional<double>> readings,
                 std::span<PowerEstimate> out, const ShardHooks& hooks = {},
                 const math::Matrix* tenant_pmcs = nullptr);

  /// Caller-owned scratch for step_cohort. All buffers reuse their
  /// allocations call over call: once a Cohort has seen its largest cohort
  /// size, further steps through it perform zero heap allocations.
  struct Cohort {
    math::Matrix rows;       // L x F held PMC rows (DynamicTrr::prepared_row)
    math::Matrix zx_batch;   // (L*T) x gates packed ring projections
    math::Matrix rnn_out;    // L x T batched RNN predictions
    ml::SequenceRegressor::Workspace rnn_ws;
    std::vector<DynamicTrr::StepPrep> preps;
    std::vector<double> raw;     // raw RNN estimate per lane
    std::vector<double> node_w;  // committed node power per lane
    std::vector<ComponentEstimate> comp;
    Srr::BatchScratch srr;
    // K-way attribution staging (untouched when tenant_pmcs is null).
    math::Matrix trows;       // L x K*F held tenant rows
    math::Matrix tenant_out;  // L x K attribution estimates
    Srr::BatchScratch tsrr;
  };

  /// Step an arbitrary cohort of lanes one tick — the primitive both
  /// step_tick (one cohort per shard) and the serve daemon's consumer pool
  /// (one cohort per drain cycle) run on. lane_ids[li] names the lane for
  /// cohort position li; pmcs.row(pmc_row0 + li), readings[li], and out[li]
  /// are that position's input row, optional IM reading, and output slot.
  ///
  /// Thread-safety contract: concurrent calls are safe iff their lane-id
  /// sets are disjoint and each call uses its own Cohort — lanes never
  /// share mutable state, the SRR/shared-RNN models are only read, and all
  /// per-call staging lives in the caller's scratch. lane_ids must not
  /// contain duplicates. Outputs are bit-identical to stepping each lane
  /// through the serial per-node path, for any cohort grouping.
  /// tenant_pmcs / tenant_row0 mirror pmcs / pmc_row0 for the attribution
  /// input (row tenant_row0 + li = cohort position li's tenant row); null
  /// skips attribution for this cohort.
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
  const DynamicTrr& node_trr(std::size_t i) const { return lanes_[i].trr; }
  /// Lane i's adaptive-sampling controller, or nullptr when the golden
  /// instance was not adaptive. Each lane observes its own committed
  /// estimates, so heterogeneous fleets diverge in mode lane by lane while
  /// every lane's decision stream stays byte-identical to the serial facade.
  const adapt::Controller* lane_controller(std::size_t i) const {
    return lanes_[i].ctl ? &*lanes_[i].ctl : nullptr;
  }

 private:
  /// Per-shard state, owned by exactly one parallel_for index per tick:
  /// the shard's contiguous lane range as a prebuilt cohort id list plus
  /// its own Cohort scratch (reused tick over tick). A shard tick is just
  /// step_cohort over [begin, end) — one code path for the whole-fleet and
  /// cohort-at-a-time callers, so they cannot drift.
  struct Shard {
    std::size_t begin = 0;  // lane range [begin, end)
    std::size_t end = 0;
    std::vector<std::size_t> ids;
    Cohort scratch;
  };

  FleetConfig cfg_;
  /// Shared SRR (streaming never fine-tunes it) and, for shared-weights
  /// fleets, the one RNN every lane's window batches through. Kept as
  /// copies so concurrent shard reads never alias a lane's scratch.
  Srr srr_;
  /// Shared K-way attribution head (copied from the golden; const at
  /// streaming time — the fleet path never self-calibrates, which is why
  /// the constructor rejects a golden with self_cal enabled).
  Srr tenant_srr_;
  std::size_t tenants_ = 0;
  ml::SequenceRegressor shared_model_;
  bool shared_rnn_ = false;
  std::vector<Lane> lanes_;
  std::vector<Shard> shards_;
};

}  // namespace highrpm::core
