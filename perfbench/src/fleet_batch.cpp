// fleet-batch: the read-only batched inference path.
//
// FleetStepper::step_tick over 1024 lanes replaying 256 distinct
// pre-collected ARM traces (lane i replays trace i mod 256, cyclically),
// IM reading every miss_interval = 10 ticks, online fine-tune off so every
// lane shares one RNN (one GEMM per layer per 64-lane shard), K = 0,
// adaptive off, a 2-thread runtime pool, closed loop (the next tick is
// issued when the previous step_tick returns).
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <vector>

#include "highrpm/core/fleet.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/runtime/parallel_for.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using highrpm::core::FleetStepper;
using highrpm::core::HighRpm;
using highrpm::core::PowerEstimate;
using highrpm::measure::CollectedRun;

constexpr std::size_t kLanes = 1024;
constexpr std::size_t kDistinctTraces = 256;
constexpr std::size_t kTraceTicks = 240;  // replayed cyclically
constexpr std::size_t kTrainTicks = 400;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWarmupTicks = 30;
constexpr std::size_t kWindowTicks = 10;  // one IM period per window
/// Lanes checked against a serial facade replay: the first lane and the
/// last lane of the last shard.
constexpr std::size_t kCheckLanes[] = {0, kLanes - 1};

/// A replayed trace's columns, looked up once.
struct Trace {
  const highrpm::math::Matrix* pmcs;
  const std::vector<double>* node_w;
  const std::vector<double>* cpu_w;
  const std::vector<double>* mem_w;
  const std::vector<bool>* measured;

  explicit Trace(const CollectedRun& run)
      : pmcs(&run.dataset.features()),
        node_w(&run.dataset.target("P_NODE")),
        cpu_w(&run.dataset.target("P_CPU")),
        mem_w(&run.dataset.target("P_MEM")),
        measured(&run.measured) {}

  /// Tick t's IM reading, when the tick carried one.
  std::optional<double> reading(std::size_t t) const {
    if (!(*measured)[t]) return std::nullopt;
    return (*node_w)[t];
  }
};

struct Inputs {
  std::vector<CollectedRun> training;
  std::vector<CollectedRun> runs;
  std::vector<Trace> traces;  // views into runs
};

Inputs make_inputs(std::uint64_t seed) {
  const highrpm::measure::Collector collector;
  const auto platform = highrpm::sim::PlatformConfig::arm();
  Inputs in;
  for (std::size_t i = 0; i < 3; ++i) {
    in.training.push_back(collector.collect(platform, rotation_workload(i),
                                            kTrainTicks,
                                            derive_seed(kCorpusSeed, 1, i)));
  }
  in.runs = highrpm::runtime::parallel_map(
      kDistinctTraces, [&](std::size_t i) {
        return collector.collect(platform, rotation_workload(i), kTraceTicks,
                                 derive_seed(seed, 2, i));
      });
  for (const CollectedRun& run : in.runs) in.traces.emplace_back(run);
  return in;
}

highrpm::core::HighRpmConfig golden_config() {
  highrpm::core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 25;
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 60;
  return cfg;
}

/// The fleet plus its per-tick staging; `tick` counts every step_tick
/// issued since construction (warm-up included), so a serial replay of
/// ticks [0, tick) reproduces any lane's whole stream.
struct Rig {
  const Inputs& in;
  FleetStepper fleet;
  highrpm::math::Matrix pmcs;
  std::vector<std::optional<double>> readings;
  std::vector<PowerEstimate> out;
  std::size_t tick = 0;
  std::vector<std::vector<PowerEstimate>> checked;  // per kCheckLanes entry

  Rig(const Inputs& inputs, const HighRpm& golden)
      : in(inputs),
        fleet(golden, kLanes),
        pmcs(kLanes, inputs.traces[0].pmcs->cols()),
        readings(kLanes),
        out(kLanes),
        checked(std::size(kCheckLanes)) {}

  void stage() {
    const std::size_t t = tick % kTraceTicks;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Trace& tr = in.traces[i % kDistinctTraces];
      const auto src = tr.pmcs->row(t);
      std::copy(src.begin(), src.end(), pmcs.row(i).begin());
      readings[i] = tr.reading(t);
    }
  }
};

struct Measured {
  Windows win;
  std::vector<double> step_us;  // every step_tick call
  double node_ticks = 0.0;
  double step_wall_ns = 0.0;
  double shard_busy_ns = 0.0;
  double node_ape = 0.0, split_ape = 0.0;  // sums of absolute % errors
  double node_n = 0.0, split_n = 0.0;
  std::uint64_t nan_ticks = 0;
};

/// Step the fleet until `budget_s` of wall time has passed, in windows of
/// kWindowTicks ticks. With `traced` set, each step_tick and each shard
/// gets a span and the shard hooks sum shard busy time.
Measured measure(Rig& rig, double budget_s, bool traced) {
  Measured m;
  SpanLog& log = spans();
  const std::uint16_t step_name = log.name("core.fleet.step_tick");
  const std::uint16_t shard_name = log.name("core.fleet.shard");
  std::uint32_t step_span = SpanLog::kNone;
  const std::size_t shards = rig.fleet.shard_count();
  std::vector<std::uint32_t> shard_span(shards, SpanLog::kNone);
  std::vector<std::uint64_t> shard_t0(shards, 0), shard_busy(shards, 0);
  FleetStepper::ShardHooks hooks;
  if (traced) {
    // Each shard index runs on exactly one thread per tick, so the
    // per-shard slots need no synchronisation beyond the pool's own job
    // hand-off (which also publishes step_span to the workers).
    hooks.before = [&](std::size_t s) {
      shard_span[s] = log.open(shard_name, step_span, rig.tick);
      shard_t0[s] = now_ns();
    };
    hooks.after = [&](std::size_t s) {
      shard_busy[s] += now_ns() - shard_t0[s];
      log.close(shard_span[s]);
    };
  }

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::vector<double> window_us;
  double window_ns = 0.0, window_cpu = 0.0;
  while (now_ns() < deadline || !window_us.empty()) {
    rig.stage();
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    if (traced) step_span = log.open(step_name, SpanLog::kNone, rig.tick);
    rig.fleet.step_tick(rig.pmcs, rig.readings, rig.out, hooks);
    log.close(step_span);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t c1 = process_cpu_ns();

    const double ns = static_cast<double>(t1 - t0);
    m.step_us.push_back(ns / 1e3);
    window_us.push_back(ns / 1e3);
    m.step_wall_ns += ns;
    m.node_ticks += kLanes;
    window_ns += ns;
    window_cpu += static_cast<double>(c1 - c0);
    if (window_us.size() == kWindowTicks) {
      m.win.add(window_us, static_cast<double>(kWindowTicks * kLanes),
                window_ns / 1e9, window_cpu);
      window_ns = window_cpu = 0.0;
    }

    // Output checks, outside the timed call: finiteness on every lane,
    // restoration error against simulator truth.
    const std::size_t t = rig.tick % kTraceTicks;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const PowerEstimate& e = rig.out[i];
      if (!std::isfinite(e.node_w) || !std::isfinite(e.cpu_w) ||
          !std::isfinite(e.mem_w)) {
        ++m.nan_ticks;
        continue;
      }
      const Trace& tr = rig.in.traces[i % kDistinctTraces];
      if (!e.measured) {
        const double truth = (*tr.node_w)[t];
        m.node_ape += std::fabs(e.node_w - truth) / truth;
        m.node_n += 1.0;
      }
      const double cpu = (*tr.cpu_w)[t];
      const double mem = (*tr.mem_w)[t];
      m.split_ape += std::fabs(e.cpu_w - cpu) / cpu + std::fabs(e.mem_w - mem) / mem;
      m.split_n += 2.0;
    }
    for (std::size_t c = 0; c < std::size(kCheckLanes); ++c) {
      rig.checked[c].push_back(rig.out[kCheckLanes[c]]);
    }
    ++rig.tick;
  }
  for (const std::uint64_t b : shard_busy) m.shard_busy_ns += static_cast<double>(b);
  return m;
}

bool same_estimate(const PowerEstimate& a, const PowerEstimate& b) {
  return std::bit_cast<std::uint64_t>(a.node_w) ==
             std::bit_cast<std::uint64_t>(b.node_w) &&
         std::bit_cast<std::uint64_t>(a.cpu_w) ==
             std::bit_cast<std::uint64_t>(b.cpu_w) &&
         std::bit_cast<std::uint64_t>(a.mem_w) ==
             std::bit_cast<std::uint64_t>(b.mem_w) &&
         a.measured == b.measured;
}

/// Serial facade replay of each checked lane over every tick the fleet
/// stepped; returns the number of ticks whose estimate differs by a bit.
std::uint64_t identity_mismatches(const HighRpm& golden, const Rig& rig) {
  std::uint64_t bad = 0;
  for (std::size_t c = 0; c < std::size(kCheckLanes); ++c) {
    const Trace& tr = rig.in.traces[kCheckLanes[c] % kDistinctTraces];
    HighRpm node = golden;
    node.reset_stream();
    for (std::size_t k = 0; k < rig.tick; ++k) {
      const std::size_t t = k % kTraceTicks;
      const PowerEstimate e = node.on_tick(tr.pmcs->row(t), tr.reading(t));
      if (!same_estimate(e, rig.checked[c][k])) ++bad;
    }
  }
  return bad;
}

}  // namespace

Report run_fleet_batch(const Options& opt) {
  highrpm::runtime::set_thread_count(kThreads);
  const Inputs in = make_inputs(opt.seed);

  // Set-up, repeated: golden initial learning + fleet construction. The
  // median is setup_s; the last fleet is the one measured.
  std::optional<HighRpm> golden;
  std::optional<Rig> rig;
  const SetupTimes setup = timed_setups(golden, golden_config(), rig, in);

  // Untimed warm-up: fills every lane's window and warms the shard scratch.
  for (std::size_t k = 0; k < kWarmupTicks; ++k) {
    rig->stage();
    rig->fleet.step_tick(rig->pmcs, rig->readings, rig->out);
    for (std::size_t c = 0; c < std::size(kCheckLanes); ++c) {
      rig->checked[c].push_back(rig->out[kCheckLanes[c]]);
    }
    ++rig->tick;
  }

  Report rep;
  auto& registry = highrpm::obs::Registry::instance();
  const Measured plain =
      measure(*rig, opt.trace ? opt.seconds / 2 : opt.seconds, false);
  const double plain_tps = decile_high(plain.win.ticks_per_s, Decile::kBest);
  std::uint64_t nan_ticks = plain.nan_ticks;
  double node_ticks = plain.node_ticks;
  if (!opt.trace) {
    rep.add("setup_s", median(setup.total), "s");
    rep.add("ticks_per_s", plain_tps, "1/s");
    rep.add("cpu_ns_per_tick",
            decile_low(plain.win.cpu_ns_per_tick, Decile::kWorst), "ns");
    rep.add("latency_p50_us", decile_low(plain.win.p50_us, Decile::kBest),
            "us");
    rep.add("node_mape_pct", 100.0 * plain.node_ape / plain.node_n, "%");
    // K = 0: the finest split this workload reports is CPU/memory.
    rep.add("tenant_mape_pct", 100.0 * plain.split_ape / plain.split_n, "%");
  } else {
    registry.reset();
    registry.set_enabled(true);
    const Measured tr = measure(*rig, opt.seconds / 2, true);
    registry.set_enabled(false);
    nan_ticks += tr.nan_ticks;
    node_ticks += tr.node_ticks;
    const double traced_tps = decile_high(tr.win.ticks_per_s, Decile::kBest);
    rep.add("runtime.pool.job_us.p50",
            registry_quantile_us("runtime.pool.job_ns", 0.5), "us");
    rep.add("runtime.pool.worker_wait_us.p50",
            registry_quantile_us("runtime.pool.worker_wait_ns", 0.5), "us");
    rep.add("runtime.pool.worker_wait_us.p99",
            registry_quantile_us("runtime.pool.worker_wait_ns", 0.99), "us");
    rep.add("runtime.pool.tasks", registry_counter("runtime.pool.tasks"),
            "count");
    rep.add("runtime.pool.serial_jobs",
            registry_counter("runtime.pool.serial_jobs"), "count");
    rep.add("runtime.shard_busy_share",
            tr.shard_busy_ns / (static_cast<double>(kThreads) * tr.step_wall_ns),
            "ratio");
    rep.add("core.fleet.step_tick_us.p50", median(tr.step_us), "us");
    rep.add("core.fleet.step_tick_us.p99", quantile(tr.step_us, 0.99), "us");
    rep.add("core.fleet.shard_tick_us.p50",
            registry_quantile_us("core.fleet.shard_tick_ns", 0.5), "us");
    rep.add("core.fleet.shard_tick_us.p99",
            registry_quantile_us("core.fleet.shard_tick_ns", 0.99), "us");
    rep.add("core.fleet.lane_ticks", registry_counter("core.fleet.lane_ticks"),
            "count");
    rep.add("core.highrpm.initial_learning_s", median(setup.learn), "s");
    rep.add("obs.trace_overhead_pct",
            100.0 * (plain_tps - traced_tps) / plain_tps, "%");
  }

  const std::uint64_t mismatches = identity_mismatches(*golden, *rig);
  rep.tally(static_cast<std::uint64_t>(node_ticks), nan_ticks + mismatches);
  std::printf("fleet-batch: %zu ticks x %zu lanes, %llu NaN lane-ticks, "
              "%llu serial-replay mismatches on lanes 0 and %zu\n",
              rig->tick, kLanes, static_cast<unsigned long long>(nan_ticks),
              static_cast<unsigned long long>(mismatches), kLanes - 1);
  return rep;
}

}  // namespace perfbench
