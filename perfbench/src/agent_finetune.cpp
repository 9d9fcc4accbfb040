// agent-finetune: the per-node write path.
//
// 16 HighRpm facades cloned from one golden, stepped round-robin from one
// thread through the 3-argument on_tick. The paper-default online LSTM
// fine-tune runs on every accepted IM reading (paper §4.2.2), K = 2
// attribution with SmartWatts self-calibration on, and a seeded
// measure::FaultInjector corrupts 2% of PMC rows to NaN and drops 5% of
// the IM readings. Nothing is batched across nodes. The runtime pool has
// one thread, so every call runs on the stepping thread.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/measure/faults.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using highrpm::core::HighRpm;
using highrpm::core::PowerEstimate;
using highrpm::measure::CollectedRun;

constexpr std::size_t kFacades = 16;
constexpr std::size_t kTenants = 2;
constexpr std::size_t kTraceTicks = 600;  // replayed cyclically
constexpr std::size_t kWarmupRounds = 30;
constexpr std::size_t kWindowRounds = 50;
/// Restoration error is scored over the first rounds of the measured phase
/// only (two passes over each trace), so it does not depend on how many
/// rounds the host managed in the time box: online fine-tune keeps moving
/// the models.
constexpr std::size_t kScoredRounds = 2 * kTraceTicks;

struct Inputs {
  std::vector<CollectedRun> training;
  std::vector<CollectedRun> runs;  // one fault-injected run per facade
  std::vector<const std::vector<double>*> node_w;  // runs[f]'s P_NODE
};

Inputs make_inputs(std::uint64_t seed) {
  const highrpm::measure::Collector collector;
  const auto platform = highrpm::sim::PlatformConfig::arm();
  Inputs in;
  in.training = tenant_corpus();
  for (std::size_t f = 0; f < kFacades; ++f) {
    const CollectedRun clean = collector.collect_tenants(
        platform, tenant_pair(f), kTraceTicks, derive_seed(seed, 12, f));
    highrpm::measure::FaultProfile faults;
    faults.pmc_nan = 0.02;
    faults.im_dropout = 0.05;
    faults.seed = derive_seed(seed, 13, f);
    in.runs.push_back(highrpm::measure::inject_faults(clean, faults));
  }
  for (const CollectedRun& run : in.runs) {
    in.node_w.push_back(&run.dataset.target("P_NODE"));
  }
  return in;
}

highrpm::core::HighRpmConfig golden_config() {
  highrpm::core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 25;
  cfg.srr.epochs = 60;
  cfg.tenants = kTenants;
  cfg.tenant_srr.epochs = 60;
  cfg.self_cal.enabled = true;
  return cfg;
}

/// Cumulative per-facade diagnostics, summed over the facades.
struct Diag {
  double finetunes = 0, triggers = 0, rejected = 0, substituted = 0,
         held = 0;
};

Diag diag(const std::vector<HighRpm>& facades) {
  Diag d;
  for (const HighRpm& h : facades) {
    d.finetunes += static_cast<double>(h.dynamic_trr().finetune_count());
    d.triggers += static_cast<double>(h.self_cal_triggers());
    d.rejected += static_cast<double>(h.dynamic_trr().rejected_readings());
    d.substituted += static_cast<double>(h.dynamic_trr().substituted_rows());
    d.held += static_cast<double>(h.held_rows());
  }
  return d;
}

struct Rig {
  const Inputs& in;
  std::vector<HighRpm> facades;
  std::size_t tick = 0;  // ticks per facade since construction
  highrpm::core::Srr::Scratch srr_scratch;
  std::uint16_t predict_span = spans().name("core.highrpm.on_tick.predict");
  std::uint16_t reading_span = spans().name("core.highrpm.on_tick.reading");

  Rig(const Inputs& inputs, const HighRpm& golden)
      : in(inputs), facades(kFacades, golden) {}
};

struct Measured {
  Windows win;
  std::vector<double> window_us;  // the open window's call latencies
  std::vector<double> predict_us, reading_us;
  std::vector<double> srr_us;  // traced only: replayed SRR predict leg
  std::size_t rounds = 0;
  double calls = 0.0;
  double readings = 0.0;  // ticks that delivered an IM reading
  double node_ape = 0.0, node_n = 0.0;
  double tenant_ape = 0.0, tenant_n = 0.0;
  std::uint64_t nan_ticks = 0;
};

/// One round: every facade steps one tick. Returns the summed on_tick time.
/// A traced round also times the SRR predict leg from outside: the library
/// records no streaming SRR span, so the benchmark repeats the facade's
/// public Srr::predict_one call on the same row and node estimate.
double round(Rig& rig, Measured* m, bool traced) {
  const std::size_t t = rig.tick % kTraceTicks;
  double busy_ns = 0.0;
  for (std::size_t f = 0; f < kFacades; ++f) {
    const CollectedRun& run = rig.in.runs[f];
    const std::vector<double>& node_w = *rig.in.node_w[f];
    std::optional<double> reading;
    if (run.measured[t]) reading = node_w[t];
    const std::uint64_t t0 = now_ns();
    const PowerEstimate e = rig.facades[f].on_tick(
        run.dataset.features().row(t), run.tenant_pmcs.row(t), reading);
    const std::uint64_t t1 = now_ns();
    if (m == nullptr) continue;
    if (traced) {
      spans().record(reading ? rig.reading_span : rig.predict_span,
                     SpanLog::kNone, rig.tick, t0, t1);
    }
    const double us = static_cast<double>(t1 - t0) / 1e3;
    busy_ns += static_cast<double>(t1 - t0);
    m->window_us.push_back(us);
    (reading ? m->reading_us : m->predict_us).push_back(us);
    m->calls += 1.0;
    if (reading) m->readings += 1.0;

    bool finite = std::isfinite(e.node_w) && std::isfinite(e.cpu_w) &&
                  std::isfinite(e.mem_w);
    for (std::size_t k = 0; k < kTenants; ++k) {
      finite = finite && std::isfinite(e.tenant_w[k]);
    }
    if (!finite) {
      ++m->nan_ticks;
      continue;
    }
    const auto row = run.dataset.features().row(t);
    if (traced && std::all_of(row.begin(), row.end(),
                              [](double v) { return std::isfinite(v); })) {
      const highrpm::core::Srr& srr = std::as_const(rig.facades[f]).srr();
      const std::uint64_t s0 = now_ns();
      srr.predict_one(row, e.node_w, rig.srr_scratch);
      m->srr_us.push_back(static_cast<double>(now_ns() - s0) / 1e3);
    }
    if (m->rounds >= kScoredRounds) continue;
    if (!e.measured) {
      m->node_ape += std::fabs(e.node_w - node_w[t]) / node_w[t];
      m->node_n += 1.0;
    }
    for (std::size_t k = 0; k < kTenants; ++k) {
      const double truth = run.tenant_power(t, k);
      m->tenant_ape += std::fabs(e.tenant_w[k] - truth) / truth;
      m->tenant_n += 1.0;
    }
  }
  ++rig.tick;
  if (m != nullptr) ++m->rounds;
  return busy_ns;
}

Measured measure(Rig& rig, double budget_s, bool traced) {
  Measured m;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t c0 = process_cpu_ns();
    double busy_ns = 0.0;
    for (std::size_t r = 0; r < kWindowRounds; ++r) {
      busy_ns += round(rig, &m, traced);
    }
    m.win.add(m.window_us, static_cast<double>(kWindowRounds * kFacades),
              busy_ns / 1e9, static_cast<double>(process_cpu_ns() - c0));
  }
  return m;
}

}  // namespace

Report run_agent_finetune(const Options& opt) {
  highrpm::runtime::set_thread_count(1);
  const Inputs in = make_inputs(opt.seed);

  // Set-up, repeated: golden initial learning + attribution fit + the 16
  // facade clones. The median is setup_s; the last facades are measured.
  std::optional<HighRpm> golden;
  std::optional<Rig> rig;
  const SetupTimes setup = timed_setups(golden, golden_config(), rig, in);

  for (std::size_t r = 0; r < kWarmupRounds; ++r) round(*rig, nullptr, false);

  Report rep;
  auto& registry = highrpm::obs::Registry::instance();
  const Measured plain =
      measure(*rig, opt.trace ? opt.seconds / 2 : opt.seconds, false);
  const double plain_tps = decile_high(plain.win.ticks_per_s, Decile::kWorst);
  std::uint64_t nan_ticks = plain.nan_ticks;
  double calls = plain.calls;
  if (!opt.trace) {
    rep.add("setup_s", median(setup.total), "s");
    rep.add("ticks_per_s", plain_tps, "1/s");
    rep.add("cpu_ns_per_tick",
            decile_low(plain.win.cpu_ns_per_tick, Decile::kWorst), "ns");
    rep.add("latency_p50_us", decile_low(plain.win.p50_us, Decile::kWorst),
            "us");
    rep.add("node_mape_pct", 100.0 * plain.node_ape / plain.node_n, "%");
    rep.add("tenant_mape_pct", 100.0 * plain.tenant_ape / plain.tenant_n, "%");
  } else {
    registry.reset();
    registry.set_enabled(true);
    const Diag before = diag(rig->facades);
    const Measured tr = measure(*rig, opt.seconds / 2, true);
    const Diag after = diag(rig->facades);
    registry.set_enabled(false);
    nan_ticks += tr.nan_ticks;
    calls += tr.calls;
    const double traced_tps = decile_high(tr.win.ticks_per_s, Decile::kWorst);
    const double predict_p50 = median(tr.predict_us);
    const double reading_p50 = median(tr.reading_us);
    rep.add("core.highrpm.on_tick_us.predict.p50", predict_p50, "us");
    rep.add("core.highrpm.on_tick_us.reading.p50", reading_p50, "us");
    rep.add("core.highrpm.on_tick_us.reading.p99",
            quantile(tr.reading_us, 0.99), "us");
    rep.add("core.srr.predict_us.p50", median(tr.srr_us), "us");
    rep.add("core.dynamic_trr.finetunes", after.finetunes - before.finetunes,
            "count");
    rep.add("core.dynamic_trr.finetune_ratio",
            (after.finetunes - before.finetunes) / tr.readings, "ratio");
    rep.add("core.highrpm.selfcal_triggers", after.triggers - before.triggers,
            "count");
    rep.add("core.dynamic_trr.rejected_readings",
            after.rejected - before.rejected, "count");
    rep.add("core.dynamic_trr.substituted_rows",
            after.substituted - before.substituted, "count");
    rep.add("core.highrpm.held_rows", after.held - before.held, "count");
    rep.add("core.highrpm.initial_learning_s", median(setup.learn), "s");
    rep.add("core.highrpm.fit_attribution_s", median(setup.attribution), "s");
    // Derived, not measured: a reading tick is a predict tick plus the
    // online fine-tune, so the p50 difference is the fine-tune's cost.
    rep.add("ml.finetune_us.p50", reading_p50 - predict_p50, "us");
    rep.add("obs.trace_overhead_pct",
            100.0 * (plain_tps - traced_tps) / plain_tps, "%");
  }

  rep.tally(static_cast<std::uint64_t>(calls), nan_ticks);
  std::printf("agent-finetune: %zu ticks x %zu facades, %llu NaN estimates\n",
              rig->tick, kFacades, static_cast<unsigned long long>(nan_ticks));
  return rep;
}

}  // namespace perfbench
