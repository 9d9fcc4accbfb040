// The HighRPM framework facade (paper Fig 3): wires TRR and SRR together
// behind the two-stage lifecycle the paper describes —
//   initial learning: train StaticTRR / DynamicTRR / SRR on initial samples
//   active learning:  pool initial + restored samples, draw reinforcement
//                     samples, fine-tune
// and the two monitoring modes:
//   restore_log(): offline historical-log analysis (StaticTRR + SRR)
//   on_tick():     online streaming monitoring (DynamicTRR + SRR)
#pragma once

#include <array>
#include <optional>
#include <span>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/lane.hpp"
#include "highrpm/core/sampler.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/obs/counter.hpp"

namespace highrpm::core {

/// Fixed capacity for per-tenant estimates in PowerEstimate: keeps the
/// per-tick output type allocation-free (the 0-alloc steady-state contract
/// extends to K-way attribution). Raising it is an ABI-ish change — fleet
/// scratch and serve snapshots size off it.
inline constexpr std::size_t kMaxTenants = 8;

/// SmartWatts-style self-calibration: instead of fine-tuning on a fixed
/// schedule, the facade tracks the attribution head's drift online and
/// triggers the active-learning-style fine-tune only when the model has
/// actually wandered. The drift signal is measurement-anchored: on every
/// accepted IM reading, compare the head's clamped pre-projection output
/// sum against the trusted budget (reading - P_Other) — a latent workload
/// change (new instruction mix, new energy weights) shows up there even
/// when every PMC looks the same. The EWMA of that relative error crossing
/// drift_threshold_pct triggers a fine-tune on the buffered recent
/// measured ticks, with pseudo-labels rescaled to the node budget (the
/// same consistency calibration active_learning applies).
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

struct HighRpmConfig {
  std::size_t miss_interval = 10;
  StaticTrrConfig static_trr{};
  DynamicTrrConfig dynamic_trr{};
  SrrConfig srr{};
  SamplerConfig sampler{};
  /// Constant peripheral draw assumed by the consistency calibration
  /// (paper §5.2: P_Other is a constant ~25 W).
  double p_other_w = 25.0;
  std::size_t active_finetune_epochs = 2;
  /// Co-located tenant count for K-way attribution (0 disables it — the
  /// framework then behaves exactly as the two-component pipeline).
  /// Requires 1 <= tenants <= kMaxTenants when non-zero.
  std::size_t tenants = 0;
  /// Attribution head config. `outputs` is forced to `tenants`; everything
  /// else (hidden width, projection, augmentation) carries the same
  /// semantics as the component SRR. The default is the SmartWatts shape —
  /// a PMC-only network (no P_Node input feature) with the consistency
  /// projection still rescaling toward the node budget: the raw output sum
  /// is then a genuine power prediction, and its residual against the
  /// trusted IM budget is the self-calibration drift signal. A head WITH
  /// include_pnode reconstructs the sum from the P_Node feature itself,
  /// which makes that residual vanish and blinds drift detection.
  SrrConfig tenant_srr{.include_pnode = false, .project_without_pnode = true};
  /// Drift-triggered recalibration of the attribution head (needs
  /// tenants > 0).
  SelfCalConfig self_cal{};
  /// Adaptive sampling (highrpm::adapt): attach a per-stream controller that
  /// watches restored-power volatility and routes quiet phases through the
  /// cheap decision-tree ResModel under a hard overhead budget. The
  /// controller's window is pinned to miss_interval so decisions land on
  /// ring-window boundaries, and train_cheap_model is forced on. Off by
  /// default — when off, every code path is identical to the fixed-rate
  /// pipeline.
  bool adaptive = false;
  adapt::ControllerConfig adapt{};
};

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

/// Offline restoration of a whole run.
struct LogRestoration {
  std::vector<double> node_w;  // StaticTRR-merged node power per tick
  std::vector<double> cpu_w;   // SRR component split per tick
  std::vector<double> mem_w;
};

class HighRpm {
 public:
  explicit HighRpm(HighRpmConfig cfg = {});

  /// Initial learning stage: training runs carry dense node labels and
  /// rig-based component labels (paper §5.2). Trains DynamicTRR and SRR.
  void initial_learning(std::span<const measure::CollectedRun> runs);

  /// Active learning stage on a *deployment* run (sparse IM only): restore
  /// node power with StaticTRR, pool measured + restored samples, draw a
  /// reinforcement subset, and fine-tune DynamicTRR and SRR. SRR component
  /// pseudo-labels come from its own predictions rescaled so that
  /// cpu + mem = node - P_Other (the bi-directional consistency constraint).
  void active_learning(const measure::CollectedRun& run);

  /// Offline log analysis: StaticTRR node restoration + SRR breakdown.
  LogRestoration restore_log(const measure::CollectedRun& run) const;

  /// Train the K-way attribution head from multi-tenant runs
  /// (Collector::collect_tenants records). Requires cfg.tenants > 0 and
  /// every run to carry exactly cfg.tenants tenants. The head's features
  /// are the concatenated per-tenant PMC rows plus (when
  /// tenant_srr.include_pnode) the restored node power; labels are the
  /// augmented ground-truth tenant watts (build_attribution_training_set).
  void fit_attribution(std::span<const measure::CollectedRun> runs);

  // --- streaming mode ---
  void reset_stream();
  PowerEstimate on_tick(std::span<const double> pmcs,
                        std::optional<double> im_reading);

  /// K-way streaming tick: `tenant_pmcs` is the K tenants' per-cgroup PMC
  /// rows concatenated in tenant order (cfg.tenants * kNumPmcEvents
  /// values). Runs the node pipeline (DynamicTRR + component SRR) exactly
  /// like the 2-arg overload — same estimates, same adaptive decisions —
  /// then fills PowerEstimate::tenant_w from the attribution head. A
  /// non-finite tenant row is held (RowHold) just like the node row. When
  /// self-calibration is enabled, measured ticks feed the drift EWMA and
  /// may trigger an online fine-tune of the attribution head; the trigger
  /// itself allocates (training is not a steady-state path), but
  /// non-trigger ticks stay 0-alloc once warm.
  PowerEstimate on_tick(std::span<const double> pmcs,
                        std::span<const double> tenant_pmcs,
                        std::optional<double> im_reading);

  bool trained() const noexcept {
    return lane_.trr.fitted() && srr_.fitted();
  }
  const HighRpmConfig& config() const noexcept { return cfg_; }
  DynamicTrr& dynamic_trr() noexcept { return lane_.trr; }
  Srr& srr() noexcept { return srr_; }
  /// Const access for read-only consumers (FleetStepper copies the lane
  /// once per node and shares the SRR from a trained golden instance).
  const DynamicTrr& dynamic_trr() const noexcept { return lane_.trr; }
  const Lane& lane() const noexcept { return lane_; }
  const Srr& srr() const noexcept { return srr_; }
  /// The K-way attribution head (fitted by fit_attribution).
  Srr& attribution_srr() noexcept { return tenant_srr_; }
  const Srr& attribution_srr() const noexcept { return tenant_srr_; }
  bool attribution_trained() const noexcept { return tenant_srr_.fitted(); }
  /// Self-calibration diagnostics: current drift EWMA (percent of the IM
  /// budget) and cumulative drift-triggered fine-tunes (obs::Counter, safe
  /// to poll from a monitor thread).
  double self_cal_drift_pct() const noexcept { return drift_ewma_pct_; }
  std::size_t self_cal_triggers() const noexcept {
    return static_cast<std::size_t>(selfcal_triggers_.value());
  }
  std::size_t active_learning_rounds() const noexcept { return al_rounds_; }
  /// Streaming ticks whose PMC row was non-finite and had to be held:
  /// DynamicTrr::substituted_rows(), the one place rows are held.
  std::size_t held_rows() const noexcept {
    return lane_.trr.substituted_rows();
  }
  /// The adaptive-sampling controller, or nullptr when cfg.adaptive is off.
  /// Exposes mode / budget / flap counters for monitors and benches; the
  /// standing Decision also carries the sensor cadence (PMC stride, IM
  /// interval factor) the *caller* is expected to apply to its sensors —
  /// HighRpm itself only consumes the cheap-vs-LSTM routing.
  const adapt::Controller* controller() const noexcept {
    return lane_.ctl ? &*lane_.ctl : nullptr;
  }

 private:
  /// Fit a fresh StaticTRR on a run's sparse IM readings and restore it.
  std::vector<double> static_restore(const measure::CollectedRun& run) const;
  /// Drift-triggered fine-tune of the attribution head on the buffered
  /// measured ticks, with pseudo-labels rescaled to the node budget.
  void recalibrate_attribution();

  HighRpmConfig cfg_;
  /// The per-tick kernel: DynamicTRR, the tenant-row hold and, iff
  /// cfg_.adaptive, the adaptive-sampling controller.
  Lane lane_;
  Srr srr_;
  /// K-way attribution head (cfg_.tenants outputs). Default-constructed but
  /// unfitted when attribution is off.
  Srr tenant_srr_;
  ReinforcementSampler sampler_;
  std::size_t al_rounds_ = 0;
  /// Reused across ticks so the steady-state SRR predict and the tenant-row
  /// hold perform zero heap allocations once warm.
  Srr::Scratch srr_scratch_;
  Srr::Scratch tenant_scratch_;
  std::vector<double> tenant_row_;
  // --- self-calibration state (cfg_.self_cal) ---
  /// Ring buffer of recent measured ticks: tenant rows + the IM reading.
  /// Sized at construction; the recalibration set when a trigger fires.
  math::Matrix selfcal_rows_;
  std::vector<double> selfcal_node_w_;
  std::size_t selfcal_count_ = 0;  // valid entries (saturates at capacity)
  std::size_t selfcal_head_ = 0;   // next ring slot to overwrite
  double drift_ewma_pct_ = 0.0;
  bool drift_seeded_ = false;
  std::size_t selfcal_cooldown_ = 0;  // ticks until the next trigger may fire
  obs::Counter selfcal_triggers_;
};

}  // namespace highrpm::core
