// highrpm::core::Lane — one monitored stream — and tick_cohort, the one
// tick kernel the facade (a cohort of one), the fleet (one cohort per
// shard) and the serve daemon (one cohort per drain cycle) all run:
// prepare (the one place a non-finite PMC row is held and a non-finite
// reading rejected) → predict → commit (+ adaptive controller) → SRR →
// K-way attribution (+ self-calibration). Every batched kernel reproduces
// its scalar counterpart bit for bit, so a lane's outputs never depend on
// which cohort it was stepped in.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/ml/rnn.hpp"
#include "highrpm/obs/counter.hpp"

namespace highrpm::core {

/// Fixed capacity for per-tenant estimates in PowerEstimate: keeps the
/// per-tick output type allocation-free (the 0-alloc steady-state contract
/// extends to K-way attribution). Raising it is an ABI-ish change — fleet
/// scratch and serve snapshots size off it.
inline constexpr std::size_t kMaxTenants = 8;

/// One tick's power picture as HighRPM reports it.
struct PowerEstimate {
  double node_w = 0.0;
  double cpu_w = 0.0;
  double mem_w = 0.0;
  /// True when node_w is a real IM reading rather than a TRR estimate.
  bool measured = false;
  /// K-way attribution (first `tenants` entries valid; 0 when attribution
  /// is off). Fixed array, not a vector: PowerEstimate is returned every
  /// tick and must stay allocation-free.
  std::size_t tenants = 0;
  std::array<double, kMaxTenants> tenant_w{};
};

/// SmartWatts-style self-calibration: instead of fine-tuning on a fixed
/// schedule, each lane tracks the attribution head's drift online. On
/// every accepted IM reading it compares the head's clamped pre-projection
/// output sum against the trusted budget (reading - P_Other) — a latent
/// change (new instruction mix, new energy weights) shows up there even
/// when every PMC looks the same. The EWMA of that relative error crossing
/// drift_threshold_pct fine-tunes the head on the buffered measured ticks,
/// with pseudo-labels rescaled to the node budget.
struct SelfCalConfig {
  bool enabled = false;
  /// EWMA(relative drift %) level that triggers recalibration.
  double drift_threshold_pct = 8.0;
  /// EWMA smoothing factor (weight of the newest measured tick).
  double ewma_alpha = 0.2;
  /// Measured-tick ring buffer used as the recalibration set; also the
  /// minimum number of buffered ticks before a trigger can fire.
  std::size_t buffer_ticks = 48;
  std::size_t min_buffered = 24;
  /// Ticks (total, not just measured) between triggers — hysteresis so a
  /// single drifted window cannot thrash repeated fine-tunes.
  std::size_t cooldown_ticks = 200;
  /// Fine-tune epochs per trigger (matches active_finetune_epochs scale).
  std::size_t epochs = 2;
};

/// One lane's self-calibration state. The lane predicts with the shared
/// attribution head until its first trigger copies it into `head`
/// (copy-on-write); fine-tunes and later predicts use that copy. Only a
/// trigger allocates.
struct SelfCal {
  /// Validates cfg (std::invalid_argument); preallocates the ring.
  SelfCal(const SelfCalConfig& cfg, std::size_t row_width);

  SelfCalConfig cfg;
  math::Matrix rows;           // ring of measured ticks' held tenant rows
  std::vector<double> node_w;  // ... and their IM readings
  std::size_t count = 0;       // valid entries (saturates at capacity)
  std::size_t next = 0;        // next ring slot to overwrite
  double drift_ewma_pct = 0.0;
  bool seeded = false;
  std::size_t cooldown = 0;  // ticks until the next trigger may fire
  obs::Counter triggers;     // cumulative drift-triggered fine-tunes
  Srr::Scratch scratch;
  std::optional<Srr> head;  // the lane's own head, from its first trigger

  const Srr& effective(const Srr& shared) const {
    return head ? *head : shared;
  }
  /// One attributed tick; raw_total is the effective head's clamped
  /// pre-projection output sum for `trow`.
  void observe(const Srr& shared, std::span<const double> trow,
               double node_w_in, bool measured, double raw_total);
  /// New stream: buffer, EWMA and cooldown start over; the own head and
  /// the trigger count persist, as DynamicTrr keeps fine-tuned weights.
  void reset();

 private:
  void recalibrate();
};

struct Lane {
  DynamicTrr trr;
  /// Hold for the concatenated per-tenant PMC row (the node row's hold
  /// lives in trr).
  RowHold tenant_hold;
  /// Present iff the stream is adaptive; observed after every predicted
  /// commit, its decisions apply from the next tick.
  std::optional<adapt::Controller> ctl;
  /// Present iff the stream attributes to tenants with self-calibration on.
  std::optional<SelfCal> cal;

  /// New stream: window, holds, controller and self-calibration buffer
  /// start over; the controller's standing routing is re-applied.
  void reset();
};

/// The read-only models a cohort tick shares.
struct CohortModels {
  const Srr& srr;
  /// Shared K-way attribution head; null when the lanes carry none.
  const Srr* head = nullptr;
  /// Weights every lane's RNN shares (online fine-tune off); null makes
  /// each lane predict with its own model.
  const ml::SequenceRegressor* shared_rnn = nullptr;
};

/// Caller-owned scratch for tick_cohort: once a Cohort has seen its
/// largest cohort size, further ticks through it allocate nothing.
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
  Srr::Scratch tone;        // per-lane predict for lanes without SelfCal
};

/// Tick a cohort of lanes once. lane_ids[li] names the lane in `lanes` for
/// cohort position li; pmcs.row(pmc_row0 + li), readings[li] and out[li]
/// are its input row, optional IM reading and output slot. tenant_pmcs /
/// tenant_row0 mirror pmcs / pmc_row0 for the concatenated per-tenant
/// rows; null skips attribution. Concurrent calls are safe iff their
/// lane-id sets are disjoint and each uses its own Cohort; lane_ids must
/// not repeat.
void tick_cohort(std::span<Lane> lanes, std::span<const std::size_t> lane_ids,
                 const CohortModels& models, const math::Matrix& pmcs,
                 std::size_t pmc_row0,
                 std::span<const std::optional<double>> readings,
                 std::span<PowerEstimate> out, Cohort& scratch,
                 const math::Matrix* tenant_pmcs = nullptr,
                 std::size_t tenant_row0 = 0);

}  // namespace highrpm::core
