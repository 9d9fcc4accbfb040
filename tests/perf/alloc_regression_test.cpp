// Allocation-count regression suite (ctest -L perf-smoke): the steady-state
// monitoring tick must stay heap-allocation-free. These tests meter the
// DynamicTRR and SRR predict paths with the counting operator new hook from
// bench/alloc_trace.hpp and fail if a single allocation sneaks back in —
// catching regressions deterministically, without timing a benchmark.
//
// alloc_trace.hpp replaces global operator new/delete and must live in
// exactly one TU per binary: this file is that TU for test_perf.
#include "alloc_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/fleet.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/math/rng.hpp"
#include "highrpm/ml/mlp.hpp"
#include "highrpm/ml/rnn.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "highrpm/sim/platform.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

namespace at = highrpm::alloctrace;

constexpr std::size_t kFeatures = 4;

// Synthetic PMC-like features with a linear power response — enough for the
// models to fit something sensible, cheap enough for a smoke test.
math::Matrix make_features(std::size_t rows, math::Rng& rng) {
  math::Matrix x(rows, kFeatures);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      x(r, c) = rng.uniform(0.0, 1.0);
    }
  }
  return x;
}

std::vector<double> make_node_power(const math::Matrix& x) {
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = 60.0 + 20.0 * x(r, 0) + 10.0 * x(r, 1) + 5.0 * x(r, 2);
  }
  return y;
}

TEST(AllocTrace, HookIsCompiledIn) {
  ASSERT_TRUE(at::available())
      << "test_perf must be built with HIGHRPM_ALLOC_TRACE";
  const auto before = at::count();
  {
    const at::Armed armed;
    std::vector<double>* v = new std::vector<double>(1024);
    delete v;
  }
  EXPECT_GT(at::count(), before) << "metered allocation was not counted";
}

TEST(AllocRegression, DynamicTrrSteadyStateTickIsAllocationFree) {
  math::Rng rng(11);
  const std::size_t train_ticks = 60;
  const auto x = make_features(train_ticks, rng);
  const auto y = make_node_power(x);

  DynamicTrrConfig cfg;
  cfg.miss_interval = 10;
  cfg.rnn.epochs = 4;
  DynamicTrr trr(cfg);
  trr.train_single(x, y);
  trr.reset_stream();

  const auto stream = make_features(80, rng);
  std::vector<double> row(kFeatures);
  // Warm-up: first reading seeds P'_prev, then enough predict-only ticks to
  // fill the ring window and size every scratch buffer.
  const std::size_t warmup = 2 * cfg.miss_interval + 1;
  for (std::size_t t = 0; t < warmup; ++t) {
    for (std::size_t c = 0; c < kFeatures; ++c) row[c] = stream(t, c);
    const std::optional<double> reading =
        t == 0 ? std::optional<double>(y[0]) : std::nullopt;
    trr.step(row, reading);
  }

  const auto before = at::count();
  std::size_t metered = 0;
  for (std::size_t t = warmup; t < stream.rows(); ++t) {
    for (std::size_t c = 0; c < kFeatures; ++c) row[c] = stream(t, c);
    const at::Armed armed;
    const double est = trr.step(row, std::nullopt).estimate;
    ASSERT_TRUE(std::isfinite(est));
    ++metered;
  }
  ASSERT_GT(metered, 0u);
  EXPECT_EQ(at::count() - before, 0u)
      << "DynamicTrr::step allocated on a steady-state tick";
}

TEST(AllocRegression, SrrPredictOneIsAllocationFree) {
  math::Rng rng(12);
  const std::size_t samples = 120;
  const auto x = make_features(samples, rng);
  const auto node = make_node_power(x);
  std::vector<double> cpu(samples), mem(samples);
  for (std::size_t r = 0; r < samples; ++r) {
    cpu[r] = 0.6 * (node[r] - 25.0);
    mem[r] = 0.4 * (node[r] - 25.0);
  }

  SrrConfig cfg;
  cfg.epochs = 10;
  Srr srr(cfg);
  srr.fit(x, node, cpu, mem);

  Srr::Scratch scratch;
  std::vector<double> row(kFeatures);
  // One warm call sizes the scratch buffers.
  for (std::size_t c = 0; c < kFeatures; ++c) row[c] = x(0, c);
  (void)srr.predict_one(row, node[0], scratch);

  const auto before = at::count();
  for (std::size_t r = 1; r < samples; ++r) {
    for (std::size_t c = 0; c < kFeatures; ++c) row[c] = x(r, c);
    const at::Armed armed;
    const auto est = srr.predict_one(row, node[r], scratch);
    ASSERT_TRUE(std::isfinite(est.cpu_w));
    ASSERT_TRUE(std::isfinite(est.mem_w));
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "Srr::predict_one allocated with a warm scratch";
}

TEST(AllocRegression, FleetSteadyStateTickIsAllocationFree) {
  // The batched fleet path inherits the steady-state contract: once every
  // shard's scratch is warm, a predict-only step_tick performs zero heap
  // allocations. Run at 1 thread so parallel_for takes its serial fallback
  // (no task-object allocation) and the whole tick is metered on this
  // thread; the per-shard hook arming used by the bench covers the
  // multi-thread case.
  runtime::set_thread_count(1);
  measure::Collector collector;
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(sim::PlatformConfig::arm(),
                                       workloads::fft(), 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;  // shared-weights fast path
  cfg.srr.epochs = 10;
  HighRpm golden(cfg);
  golden.initial_learning(training);

  const std::size_t nodes = 6;
  FleetConfig fcfg;
  fcfg.shard_lanes = 4;  // two shards: one full, one ragged
  FleetStepper fleet(golden, nodes, fcfg);

  const auto stream = collector.collect(sim::PlatformConfig::arm(),
                                        workloads::stream(), 80, 8);
  const auto& features = stream.dataset.features();
  const auto& labels = stream.dataset.target("P_NODE");
  math::Matrix pmcs(nodes, features.cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  const std::size_t warmup = 2 * golden.config().miss_interval + 1;
  const auto play_tick = [&](std::size_t t, bool with_reading) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto src = features.row((t + i) % features.rows());
      auto dst = pmcs.row(i);
      std::copy(src.begin(), src.end(), dst.begin());
      readings[i] = with_reading ? std::optional<double>(labels[t])
                                 : std::nullopt;
    }
    fleet.step_tick(pmcs, readings, out);
  };
  for (std::size_t t = 0; t < warmup; ++t) play_tick(t, t == 0);

  const auto before = at::count();
  std::size_t metered = 0;
  for (std::size_t t = warmup; t < 60; ++t) {
    const at::Armed armed;
    play_tick(t, false);
    ++metered;
  }
  ASSERT_GT(metered, 0u);
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_TRUE(std::isfinite(out[i].node_w));
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "FleetStepper::step_tick allocated on a steady-state tick";
  runtime::set_thread_count(0);
}

TEST(AllocRegression, TenantAttributionOnTickIsAllocationFree) {
  // The K-way streaming tick inherits the facade's steady-state contract:
  // attribution predict uses caller-owned scratch, the tenant-row hold
  // reuses the facade's row scratch, and self-calibration's measured-tick
  // buffering writes into the ring preallocated at construction. Only an
  // actual drift TRIGGER (fine-tune) may allocate — pinned out here with an
  // unreachable threshold.
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 120, 9));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;  // its reading-tick fine-tune
                                            // allocates by design
  cfg.srr.epochs = 10;
  cfg.tenants = 2;
  cfg.tenant_srr.epochs = 10;
  cfg.self_cal.enabled = true;
  cfg.self_cal.drift_threshold_pct = 1e9;  // buffer/score, never fine-tune
  HighRpm model(cfg);
  model.initial_learning(runs);
  model.fit_attribution(runs);

  const auto stream =
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 80, 10);
  const auto& features = stream.dataset.features();
  const auto& node = stream.dataset.target("P_NODE");
  const std::size_t warmup = 2 * model.config().miss_interval + 1;
  const auto play_tick = [&](std::size_t t) {
    std::optional<double> reading;
    if (stream.measured[t]) reading = node[t];
    return model.on_tick(features.row(t), stream.tenant_pmcs.row(t), reading);
  };
  for (std::size_t t = 0; t < warmup; ++t) (void)play_tick(t);

  const auto before = at::count();
  std::size_t metered = 0, measured = 0;
  for (std::size_t t = warmup; t < 80; ++t) {
    const at::Armed armed;
    const auto est = play_tick(t);
    ASSERT_EQ(est.tenants, 2u);
    ASSERT_TRUE(std::isfinite(est.tenant_w[0]));
    ++metered;
    measured += est.measured;
  }
  ASSERT_GT(metered, 0u);
  ASSERT_GT(measured, 0u) << "no measured tick metered: the self-cal "
                             "buffering path was never exercised";
  EXPECT_EQ(at::count() - before, 0u)
      << "tenant HighRpm::on_tick allocated on a steady-state tick";
  EXPECT_EQ(model.self_cal_triggers(), 0u);
}

TEST(AllocRegression, HeldRowFacadeTickIsAllocationFree) {
  // A degraded tick holds its rows in storage the stream already owns: the
  // node row in DynamicTrr's ring slot, the tenant row in the facade's row
  // scratch. Neither may heap-copy the last good row.
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 120, 9));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 10;
  cfg.tenants = 2;
  cfg.tenant_srr.epochs = 10;
  HighRpm model(cfg);
  model.initial_learning(runs);
  model.fit_attribution(runs);

  const auto stream =
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 40, 10);
  const auto& features = stream.dataset.features();
  const auto& node = stream.dataset.target("P_NODE");
  const std::size_t warmup = 2 * model.config().miss_interval + 1;
  for (std::size_t t = 0; t < warmup; ++t) {
    std::optional<double> reading;
    if (stream.measured[t]) reading = node[t];
    (void)model.on_tick(features.row(t), stream.tenant_pmcs.row(t), reading);
  }

  const std::vector<double> nan_row(features.cols(), std::nan(""));
  const std::vector<double> nan_trow(stream.tenant_pmcs.cols(), std::nan(""));
  const std::size_t held0 = model.held_rows();
  const auto before = at::count();
  for (std::size_t t = 0; t < 3; ++t) {
    PowerEstimate est;
    {
      const at::Armed armed;
      est = model.on_tick(nan_row, nan_trow, std::nullopt);
    }
    ASSERT_TRUE(std::isfinite(est.node_w));
    ASSERT_TRUE(std::isfinite(est.tenant_w[0]));
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "HighRpm::on_tick allocated on a held-row tick";
  EXPECT_EQ(model.held_rows() - held0, 3u);
}

TEST(AllocRegression, TenantFleetStepTickIsAllocationFree) {
  // K-way attribution in the batched path: one extra GEMM per layer per
  // shard through Cohort::trows/tenant_out/tsrr — all warm after the first
  // tick, so the steady state stays allocation-free.
  runtime::set_thread_count(1);
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> training;
  training.push_back(
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 10;
  cfg.tenants = 2;
  cfg.tenant_srr.epochs = 10;
  HighRpm golden(cfg);
  golden.initial_learning(training);
  golden.fit_attribution(training);

  const std::size_t nodes = 6;
  FleetConfig fcfg;
  fcfg.shard_lanes = 4;  // two shards: one full, one ragged
  FleetStepper fleet(golden, nodes, fcfg);
  ASSERT_EQ(fleet.tenants(), 2u);

  const auto stream =
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 80, 8);
  const auto& features = stream.dataset.features();
  math::Matrix pmcs(nodes, features.cols());
  math::Matrix trows(nodes, stream.tenant_pmcs.cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  const std::size_t warmup = 2 * golden.config().miss_interval + 1;
  const auto play_tick = [&](std::size_t t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const std::size_t r = (t + i) % features.rows();
      std::copy(features.row(r).begin(), features.row(r).end(),
                pmcs.row(i).begin());
      std::copy(stream.tenant_pmcs.row(r).begin(),
                stream.tenant_pmcs.row(r).end(), trows.row(i).begin());
      readings[i] = std::nullopt;
    }
    fleet.step_tick(pmcs, readings, out, {}, &trows);
  };
  for (std::size_t t = 0; t < warmup; ++t) play_tick(t);

  const auto before = at::count();
  std::size_t metered = 0;
  for (std::size_t t = warmup; t < 60; ++t) {
    const at::Armed armed;
    play_tick(t);
    ++metered;
  }
  ASSERT_GT(metered, 0u);
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_EQ(out[i].tenants, 2u);
    ASSERT_TRUE(std::isfinite(out[i].tenant_w[0]));
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "tenant FleetStepper::step_tick allocated on a steady-state tick";
  runtime::set_thread_count(0);
}

TEST(AllocRegression, SelfCalFleetStepTickIsAllocationFree) {
  // Self-calibrating lanes predict one at a time into their own scratch and
  // buffer measured ticks into the ring each lane preallocated; only a
  // drift TRIGGER (fine-tune) may allocate — pinned out here with an
  // unreachable threshold.
  runtime::set_thread_count(1);
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> training;
  training.push_back(
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 10;
  cfg.tenants = 2;
  cfg.tenant_srr.epochs = 10;
  cfg.self_cal.enabled = true;
  cfg.self_cal.drift_threshold_pct = 1e9;  // buffer/score, never fine-tune
  HighRpm golden(cfg);
  golden.initial_learning(training);
  golden.fit_attribution(training);

  const std::size_t nodes = 6;
  FleetConfig fcfg;
  fcfg.shard_lanes = 4;  // two shards: one full, one ragged
  FleetStepper fleet(golden, nodes, fcfg);
  ASSERT_EQ(fleet.tenants(), 2u);

  const auto stream =
      collector.collect_tenants(sim::PlatformConfig::arm(), mix, 80, 8);
  const auto& features = stream.dataset.features();
  const auto& node = stream.dataset.target("P_NODE");
  math::Matrix pmcs(nodes, features.cols());
  math::Matrix trows(nodes, stream.tenant_pmcs.cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  const std::size_t warmup = 2 * golden.config().miss_interval + 1;
  std::size_t measured = 0;
  const auto play_tick = [&](std::size_t t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      std::copy(features.row(t).begin(), features.row(t).end(),
                pmcs.row(i).begin());
      std::copy(stream.tenant_pmcs.row(t).begin(),
                stream.tenant_pmcs.row(t).end(), trows.row(i).begin());
      readings[i] = stream.measured[t] ? std::optional<double>(node[t])
                                       : std::nullopt;
    }
    fleet.step_tick(pmcs, readings, out, {}, &trows);
    for (std::size_t i = 0; i < nodes; ++i) measured += out[i].measured;
  };
  for (std::size_t t = 0; t < warmup; ++t) play_tick(t);

  measured = 0;
  const auto before = at::count();
  for (std::size_t t = warmup; t < 80; ++t) {
    const at::Armed armed;
    play_tick(t);
  }
  ASSERT_GT(measured, 0u) << "no measured tick metered: the self-cal "
                             "buffering path was never exercised";
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_EQ(out[i].tenants, 2u);
    ASSERT_TRUE(std::isfinite(out[i].tenant_w[0]));
    ASSERT_TRUE(fleet.lane(i).cal.has_value());
    EXPECT_EQ(fleet.lane(i).cal->triggers.value(), 0u);
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "self-calibrating FleetStepper::step_tick allocated on a "
         "steady-state tick";
  runtime::set_thread_count(0);
}

TEST(AllocRegression, AdaptiveControllerObserveIsAllocationFree) {
  // The controller's window statistics are fixed-size; the only buffer is
  // the previous-PMC copy, sized on the first observe. Everything after
  // that — including window closes and mode transitions — is alloc-free.
  adapt::ControllerConfig cfg;
  cfg.hold_windows = 1;
  cfg.budget_permille = 300;
  cfg.up_threshold_w = 0.0;
  cfg.down_threshold_w = 0.0;
  adapt::Controller ctl(cfg);
  std::array<double, kFeatures> pmcs{1.0, 2.0, 3.0, 4.0};
  ctl.observe(60.0, pmcs);  // warm tick sizes the prev-PMC buffer

  const auto before = at::count();
  for (std::size_t t = 1; t < 400; ++t) {
    pmcs[0] = (t % 2 == 0) ? 1.0 : 900.0;
    const at::Armed armed;
    (void)ctl.observe((t % 2 == 0) ? 40.0 : 140.0, pmcs);
  }
  // The budget-limited config oscillates, so both modes and several
  // transitions were metered above, not just quiet sparse ticks.
  EXPECT_GT(ctl.mode_changes(), 0u);
  EXPECT_GT(ctl.dense_ticks(), 0u);
  EXPECT_EQ(at::count() - before, 0u)
      << "Controller::observe allocated on a steady-state tick";
}

TEST(AllocRegression, AdaptiveHighRpmOnTickIsAllocationFree) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(sim::PlatformConfig::arm(),
                                       workloads::fft(), 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.srr.epochs = 10;
  cfg.adaptive = true;
  cfg.adapt.budget_permille = 300;  // oscillates: both paths get metered
  cfg.adapt.hold_windows = 1;
  cfg.adapt.up_threshold_w = 0.0;
  cfg.adapt.down_threshold_w = 0.0;
  HighRpm model(cfg);
  model.initial_learning(training);
  model.reset_stream();

  const auto stream = collector.collect(sim::PlatformConfig::arm(),
                                        workloads::stream(), 200, 8);
  const auto& features = stream.dataset.features();
  const auto& labels = stream.dataset.target("P_NODE");
  std::vector<double> row(features.cols());
  // Warm through the FIRST dense window (budget 300 provably enters Dense
  // during window 5): the LSTM scratch is sized lazily on the first dense
  // tick, which is warm-up, not steady state. Every later dense phase
  // reuses it — that is what gets metered.
  const std::size_t warmup = 6 * cfg.miss_interval + 1;
  for (std::size_t t = 0; t < warmup; ++t) {
    const auto src = features.row(t);
    std::copy(src.begin(), src.end(), row.begin());
    model.on_tick(row, t == 0 ? std::optional<double>(labels[0])
                              : std::nullopt);
  }

  const auto before = at::count();
  std::size_t metered = 0;
  for (std::size_t t = warmup; t < features.rows(); ++t) {
    const auto src = features.row(t);
    std::copy(src.begin(), src.end(), row.begin());
    const at::Armed armed;
    const PowerEstimate est = model.on_tick(row, std::nullopt);
    ASSERT_TRUE(std::isfinite(est.node_w));
    ++metered;
  }
  ASSERT_GT(metered, 0u);
  const adapt::Controller* ctl = model.controller();
  ASSERT_NE(ctl, nullptr);
  EXPECT_GT(ctl->mode_changes(), 0u)
      << "metered run never switched modes — cheap/dense not both covered";
  EXPECT_EQ(at::count() - before, 0u)
      << "adaptive HighRpm::on_tick allocated on a steady-state tick";
}

TEST(AllocRegression, FineTunedHighRpmPredictAfterGenerationBumpIsAllocationFree) {
  // An accepted reading fine-tunes the facade's LSTM, bumping its weight
  // generation; the next predict tick then reprojects every ring slot of
  // the window. That refresh must reuse the ring's cache storage.
  measure::Collector collector;
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(sim::PlatformConfig::arm(),
                                       workloads::fft(), 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.finetune_epochs = 1;
  cfg.srr.epochs = 10;
  ASSERT_TRUE(cfg.dynamic_trr.online_finetune);
  HighRpm model(cfg);
  model.initial_learning(training);
  model.reset_stream();

  const auto stream = collector.collect(sim::PlatformConfig::arm(),
                                        workloads::stream(), 120, 8);
  const auto& features = stream.dataset.features();
  const auto& labels = stream.dataset.target("P_NODE");
  const ml::SequenceRegressor& rnn = model.dynamic_trr().model();
  std::vector<double> row(features.cols());
  std::uint64_t metered_allocs = 0;
  std::size_t metered = 0;
  bool bumped = false;
  // Two full windows of warm-up (the first post-bump tick included) size
  // every scratch buffer; after that, each tick right after a bump is
  // metered.
  const std::size_t warmup = 2 * cfg.miss_interval + 2;
  for (std::size_t t = 0; t < features.rows(); ++t) {
    const auto src = features.row(t);
    std::copy(src.begin(), src.end(), row.begin());
    if (t % cfg.miss_interval == 0) {
      const std::uint64_t gen = rnn.generation();
      const PowerEstimate est = model.on_tick(row, labels[t]);
      ASSERT_TRUE(est.measured);
      bumped = rnn.generation() != gen;
      continue;
    }
    if (t >= warmup && bumped) {
      const auto before = at::count();
      {
        const at::Armed armed;
        const PowerEstimate est = model.on_tick(row, std::nullopt);
        ASSERT_TRUE(std::isfinite(est.node_w));
      }
      metered_allocs += at::count() - before;
      ++metered;
    } else {
      model.on_tick(row, std::nullopt);
    }
    bumped = false;
  }
  ASSERT_GT(metered, 0u) << "no predict tick followed a generation bump";
  EXPECT_EQ(metered_allocs, 0u)
      << "HighRpm::on_tick allocated reprojecting the window after a "
         "fine-tune";
}

TEST(AllocRegression, FineTuningReadingTickIsAllocationFree) {
  // An accepted IM reading fine-tunes the facade's LSTM on the window it
  // completes (paper §4.2.2). The window is packed into DynamicTrr's own
  // sample and the fit runs from the model's training workspace, so once
  // both are warm a fine-tuning reading tick allocates nothing either.
  measure::Collector collector;
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(sim::PlatformConfig::arm(),
                                       workloads::fft(), 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.srr.epochs = 10;
  ASSERT_TRUE(cfg.dynamic_trr.online_finetune);
  HighRpm model(cfg);
  model.initial_learning(training);
  model.reset_stream();

  const auto stream = collector.collect(sim::PlatformConfig::arm(),
                                        workloads::stream(), 120, 8);
  const auto& features = stream.dataset.features();
  const auto& labels = stream.dataset.target("P_NODE");
  const DynamicTrr& trr = model.dynamic_trr();
  std::vector<double> row(features.cols());
  // Two fine-tunes (at ticks 10 and 20) warm the workspace; every later
  // reading tick is metered.
  const std::size_t warmup = 2 * cfg.miss_interval + 1;
  std::uint64_t metered_allocs = 0;
  std::size_t metered = 0;
  for (std::size_t t = 0; t < features.rows(); ++t) {
    const auto src = features.row(t);
    std::copy(src.begin(), src.end(), row.begin());
    const bool reading = t % cfg.miss_interval == 0;
    if (t < warmup || !reading) {
      (void)model.on_tick(row, reading ? std::optional<double>(labels[t])
                                       : std::nullopt);
      continue;
    }
    const std::size_t finetunes = trr.finetune_count();
    const auto before = at::count();
    {
      const at::Armed armed;
      const PowerEstimate est = model.on_tick(row, labels[t]);
      ASSERT_TRUE(est.measured);
    }
    metered_allocs += at::count() - before;
    ++metered;
    ASSERT_EQ(trr.finetune_count(), finetunes + 1)
        << "reading tick " << t << " did not fine-tune";
  }
  ASSERT_GT(metered, 0u);
  EXPECT_EQ(metered_allocs, 0u)
      << "a fine-tuning reading tick allocated (" << metered_allocs
      << " allocations over " << metered << " ticks)";
}

TEST(AllocRegression, WarmModelFitsAreAllocationFree) {
  // Both trainable networks fit from a workspace the model keeps across
  // calls: once a fit has seen a shape, fitting that shape again (one
  // window or a batch of several) makes no heap allocation.
  math::Rng rng(5);
  std::vector<data::SequenceSample> windows(6);
  for (auto& w : windows) {
    w.steps = make_features(10, rng);
    w.labels = make_node_power(w.steps);
  }
  ml::RnnConfig rcfg;
  rcfg.epochs = 2;
  rcfg.batch_size = 4;
  ml::SequenceRegressor rnn(rcfg);
  rnn.fit(windows);
  rnn.fit(windows, /*reset=*/false, 2);
  const std::span<const data::SequenceSample> one(windows.data(), 1);
  auto before = at::count();
  {
    const at::Armed armed;
    rnn.fit(windows, /*reset=*/false, 2);
    rnn.fit(one, /*reset=*/false, 2);
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "a warm SequenceRegressor::fit allocated";
  // Copies neither clone nor share the workspace: a copy's first fit sizes
  // its own.
  ml::SequenceRegressor copy = rnn;
  before = at::count();
  {
    const at::Armed armed;
    copy.fit(one, /*reset=*/false, 2);
  }
  EXPECT_GT(at::count() - before, 0u)
      << "a copied model started with a warm training workspace";

  ml::MlpConfig mcfg;
  mcfg.hidden = {8, 4};
  mcfg.epochs = 3;
  mcfg.batch_size = 8;
  ml::Mlp mlp(mcfg);
  const auto x = make_features(40, rng);
  math::Matrix y(x.rows(), 2);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y(r, 0) = 3.0 * x(r, 0) + x(r, 1);
    y(r, 1) = x(r, 2) - x(r, 3);
  }
  mlp.fit(x, y);
  before = at::count();
  {
    const at::Armed armed;
    mlp.fit(x, y, /*reset=*/false, 2);
  }
  EXPECT_EQ(at::count() - before, 0u) << "a warm Mlp::fit allocated";
}

TEST(AllocRegression, AdaptiveFleetSteadyStateTickIsAllocationFree) {
  // Adaptive fleet: lanes hop between the batched GEMM path and per-lane
  // cheap routing as their controllers switch; the steady-state tick must
  // stay alloc-free across those transitions too.
  runtime::set_thread_count(1);
  measure::Collector collector;
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(sim::PlatformConfig::arm(),
                                       workloads::fft(), 120, 7));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 10;
  cfg.adaptive = true;
  cfg.adapt.budget_permille = 300;
  cfg.adapt.hold_windows = 1;
  cfg.adapt.up_threshold_w = 0.0;
  cfg.adapt.down_threshold_w = 0.0;
  HighRpm golden(cfg);
  golden.initial_learning(training);

  const std::size_t nodes = 6;
  FleetConfig fcfg;
  fcfg.shard_lanes = 4;
  FleetStepper fleet(golden, nodes, fcfg);

  const auto stream = collector.collect(sim::PlatformConfig::arm(),
                                        workloads::stream(), 100, 8);
  const auto& features = stream.dataset.features();
  const auto& labels = stream.dataset.target("P_NODE");
  math::Matrix pmcs(nodes, features.cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  // Same warm-up contract as the facade test above: the batched-GEMM
  // scratch is sized on the fleet's first dense window (window 5 under
  // budget 300), so warm past it and meter the later oscillations.
  const std::size_t warmup = 6 * golden.config().miss_interval + 1;
  const auto play_tick = [&](std::size_t t, bool with_reading) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto src = features.row((t + i) % features.rows());
      auto dst = pmcs.row(i);
      std::copy(src.begin(), src.end(), dst.begin());
      readings[i] = with_reading ? std::optional<double>(labels[t])
                                 : std::nullopt;
    }
    fleet.step_tick(pmcs, readings, out);
  };
  for (std::size_t t = 0; t < warmup; ++t) play_tick(t, t == 0);

  const auto before = at::count();
  std::size_t metered = 0;
  for (std::size_t t = warmup; t < 160; ++t) {
    const at::Armed armed;
    play_tick(t, false);
    ++metered;
  }
  ASSERT_GT(metered, 0u);
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_TRUE(std::isfinite(out[i].node_w));
    const adapt::Controller* ctl = fleet.lane_controller(i);
    ASSERT_NE(ctl, nullptr);
    EXPECT_GT(ctl->mode_changes(), 0u) << "node " << i;
  }
  EXPECT_EQ(at::count() - before, 0u)
      << "adaptive FleetStepper::step_tick allocated on a steady-state tick";
  runtime::set_thread_count(0);
}

}  // namespace
}  // namespace highrpm::core
