// serve-daemon: rings, consumers, seqlock publish and snapshots.
//
// serve::Daemon with 64 lanes, 2 consumers, K = 2 attribution and shared
// RNN weights, fed pre-generated multi-tenant ticks (the ticks
// measure::NodeTickStream emits; Collector::collect_tenants records the
// same ticks together with the per-tenant truth the error metrics need).
//
//   (a) drain: the rings are prefilled while the daemon is stopped, then
//       start() -> quiesce() is timed. Every cycle steps a full 32-lane
//       cohort, so this phase is bound by batching.
//   (b) paced, open loop: the main thread offers 40,000 node-ticks/s
//       round-robin over the lanes, each tick stamped with the time it was
//       due, and polls snapshot() between due times to see when each
//       tick's effect shows in NodeStatus::ticks. Cohorts hold about one
//       lane, so this phase is bound by wake-up cost. 3 threads in all.
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/measure/stream.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "highrpm/serve/daemon.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using highrpm::core::HighRpm;
using highrpm::core::PowerEstimate;
using highrpm::measure::CollectedRun;
using highrpm::measure::StreamTick;
using highrpm::serve::Daemon;
using highrpm::serve::DaemonSnapshot;
using highrpm::serve::OfferResult;

constexpr std::size_t kLanes = 64;
constexpr std::size_t kConsumers = 2;
constexpr std::size_t kTenants = 2;
constexpr std::size_t kRing = 128;        // drain prefill per lane
constexpr std::size_t kTraceTicks = 400;  // per-lane ticks, replayed cyclically
constexpr double kPacedRate = 40000.0;  // node-ticks/s over all lanes
constexpr double kDrainShare = 0.4;     // of the measured time
constexpr std::uint64_t kVisibleTimeoutNs = 200'000'000;
constexpr std::uint64_t kWindowNs = 25'000'000;  // paced window of due time

struct Lane {
  std::vector<StreamTick> ticks;
  highrpm::math::Matrix tenant_w;  // ground-truth watts per tick and tenant
};

struct Inputs {
  std::vector<CollectedRun> training;
  std::vector<Lane> lanes;
};

/// The StreamTicks NodeTickStream would emit for this run, tick for tick.
std::vector<StreamTick> stream_ticks(const CollectedRun& run) {
  std::vector<StreamTick> out(run.num_ticks());
  const auto& node_w = run.dataset.target("P_NODE");
  for (std::size_t t = 0; t < out.size(); ++t) {
    StreamTick& s = out[t];
    s.tick = t;
    const auto row = run.dataset.features().row(t);
    std::copy(row.begin(), row.end(), s.pmcs.begin());
    s.truth_node_w = node_w[t];
    s.truth_cpu_w = run.dataset.target("P_CPU")[t];
    s.truth_mem_w = run.dataset.target("P_MEM")[t];
    s.num_tenants = static_cast<std::uint32_t>(run.num_tenants);
    const auto trow = run.tenant_pmcs.row(t);
    std::copy(trow.begin(), trow.end(), s.tenant_pmcs.begin());
  }
  for (const auto& r : run.ipmi_readings) {
    out[r.tick_index].has_reading = true;
    out[r.tick_index].reading_w = r.power_w;
  }
  return out;
}

Inputs make_inputs(std::uint64_t seed) {
  const highrpm::measure::Collector collector;
  const auto platform = highrpm::sim::PlatformConfig::arm();
  Inputs in;
  in.training = tenant_corpus();
  for (std::size_t l = 0; l < kLanes; ++l) {
    const CollectedRun run = collector.collect_tenants(
        platform, tenant_pair(l), kTraceTicks, derive_seed(seed, 22, l));
    in.lanes.push_back({stream_ticks(run), run.tenant_power});
  }
  return in;
}

highrpm::core::HighRpmConfig golden_config() {
  highrpm::core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 25;
  cfg.dynamic_trr.online_finetune = false;  // shared RNN weights
  cfg.srr.epochs = 60;
  cfg.tenants = kTenants;
  cfg.tenant_srr.epochs = 60;
  return cfg;
}

/// Consumer-cycle probe for the traced run, driven by DaemonConfig's
/// CycleHooks. A cycle counts as a work cycle when the library's
/// serve.consumed counter moved during it; with two consumers a cycle that
/// overlaps the other consumer's publish can be miscounted, which is rare
/// in the paced phase and irrelevant in the drain phase (every cycle works).
struct CycleProbe {
  struct PerConsumer {
    std::uint64_t t0 = 0;
    std::uint64_t consumed0 = 0;
    std::uint64_t cycles[2] = {0, 0};
    std::uint64_t work_cycles[2] = {0, 0};
    std::vector<double> work_us[2];  // per phase, capped
  };
  static constexpr std::size_t kCap = 1 << 18;
  std::atomic<int> phase{0};  // 0 = drain, 1 = paced
  PerConsumer per[kConsumers];
  highrpm::obs::Counter& consumed =
      highrpm::obs::Registry::instance().counter("serve.consumed");
  std::uint16_t span_name[kConsumers] = {spans().name("serve.consumer_cycle.0"),
                                         spans().name("serve.consumer_cycle.1")};

  CycleProbe() {
    for (auto& pc : per) {
      pc.work_us[0].reserve(kCap);
      pc.work_us[1].reserve(kCap);
    }
  }

  /// Forget everything recorded so far; call while the daemon is stopped.
  void clear() {
    for (auto& pc : per) {
      for (int ph = 0; ph < 2; ++ph) {
        pc.cycles[ph] = pc.work_cycles[ph] = 0;
        pc.work_us[ph].clear();
      }
    }
  }

  highrpm::serve::DaemonConfig::CycleHooks hooks() {
    highrpm::serve::DaemonConfig::CycleHooks h;
    h.before = [this](std::size_t c) {
      per[c].consumed0 = consumed.value();
      per[c].t0 = now_ns();
    };
    h.after = [this](std::size_t c) {
      const std::uint64_t t1 = now_ns();
      PerConsumer& pc = per[c];
      const int ph = phase.load(std::memory_order_relaxed);
      ++pc.cycles[ph];
      if (consumed.value() == pc.consumed0) return;
      ++pc.work_cycles[ph];
      if (pc.work_us[ph].size() < kCap) {
        pc.work_us[ph].push_back(static_cast<double>(t1 - pc.t0) / 1e3);
      }
      // Tick id: the library-wide consumed count when the cycle ended.
      spans().record(span_name[c], SpanLog::kNone, consumed.value(), pc.t0,
                     t1);
    };
    return h;
  }
};

/// A daemon plus the per-lane offer cursors (ticks offered so far).
struct Rig {
  const Inputs& in;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::size_t> sent = std::vector<std::size_t>(kLanes, 0);
  std::uint64_t offered = 0;
  std::uint64_t not_accepted = 0;

  Rig(const Inputs& inputs, const HighRpm& golden,
      highrpm::serve::DaemonConfig::CycleHooks hooks = {})
      : in(inputs) {
    highrpm::serve::DaemonConfig cfg;
    cfg.consumers = kConsumers;
    cfg.ring_capacity = kRing;
    cfg.hooks = std::move(hooks);
    std::vector<std::string> suites;
    for (std::size_t l = 0; l < kLanes; ++l) {
      suites.push_back(rotation_workload(l).suite);
    }
    daemon = std::make_unique<Daemon>(golden, kLanes, std::move(suites), cfg);
  }

  OfferResult offer(std::size_t lane) {
    const OfferResult r =
        daemon->offer(lane, in.lanes[lane].ticks[sent[lane] % kTraceTicks]);
    ++sent[lane];
    ++offered;
    if (r != OfferResult::kAccepted) ++not_accepted;
    return r;
  }

  /// Prefill every ring while stopped, then time start() -> quiesce().
  /// Returns the drain rate in node-ticks/s.
  double drain() {
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t k = 0; k < kRing; ++k) offer(l);
    }
    const std::uint64_t t0 = now_ns();
    daemon->start();
    daemon->quiesce();
    const std::uint64_t t1 = now_ns();
    daemon->stop();
    return static_cast<double>(kLanes * kRing) /
           (static_cast<double>(t1 - t0) / 1e9);
  }

  std::vector<double> drains(double budget_s) {
    std::vector<double> rates;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    do {
      rates.push_back(drain());
    } while (now_ns() < deadline);
    return rates;
  }
};

struct Paced {
  Windows win;  // per kWindowNs of due time; CPU excludes the main thread
  std::vector<double> latency_us;  // due -> visible, every tick
  std::vector<double> offer_ns, snapshot_us, late_us;
  double ticks = 0.0;
  std::uint64_t never_visible = 0;
  double node_ape = 0.0, node_n = 0.0;
  double tenant_ape = 0.0, tenant_n = 0.0;
};

/// The open-loop phase: offers on a fixed schedule, polls snapshots
/// between due times, and records when each tick becomes visible.
Paced paced(Rig& rig, double budget_s, bool traced) {
  struct Pending {
    std::size_t lane;
    std::uint64_t expect;  // NodeStatus::ticks once this tick is published
    std::size_t tick;      // index into the lane's tick pool
    std::uint64_t n;       // position in the paced schedule
    std::uint64_t due;
    std::uint32_t offer_span;
  };
  Paced p;
  SpanLog& log = spans();
  const std::uint16_t offer_name = log.name("serve.offer");
  const std::uint16_t visible_name = log.name("serve.due_to_visible");
  std::vector<std::uint64_t> expect(kLanes);
  {
    const DaemonSnapshot s = rig.daemon->snapshot();
    for (std::size_t l = 0; l < kLanes; ++l) expect[l] = s.nodes[l].ticks;
  }
  std::deque<Pending> pending;
  std::vector<double> window;
  const double interval_ns = 1e9 / kPacedRate;
  const auto n_ticks = static_cast<std::uint64_t>(budget_s * kPacedRate);

  auto poll = [&] {
    const std::uint64_t s0 = now_ns();
    const DaemonSnapshot snap = rig.daemon->snapshot();
    const std::uint64_t s1 = now_ns();
    const std::size_t before = pending.size();
    for (auto it = pending.begin(); it != pending.end();) {
      const highrpm::serve::NodeStatus& ns = snap.nodes[it->lane];
      if (ns.ticks < it->expect) {
        ++it;
        continue;
      }
      const double us = static_cast<double>(s1 - it->due) / 1e3;
      p.latency_us.push_back(us);
      window.push_back(us);
      if (traced) log.record(visible_name, it->offer_span, it->n, it->due, s1);
      // Restoration error of the published estimate, when the snapshot
      // shows exactly this tick.
      const Lane& lane = rig.in.lanes[it->lane];
      const StreamTick& st = lane.ticks[it->tick];
      if (ns.ticks == it->expect) {
        if (!ns.measured) {
          p.node_ape += std::fabs(ns.node_w - st.truth_node_w) / st.truth_node_w;
          p.node_n += 1.0;
        }
        for (std::size_t k = 0; k < kTenants; ++k) {
          const double truth = lane.tenant_w(it->tick, k);
          p.tenant_ape += std::fabs(ns.tenant_w[k] - truth) / truth;
          p.tenant_n += 1.0;
        }
      }
      it = pending.erase(it);
    }
    // Polls run back to back; keep the ones that revealed a tick.
    if (pending.size() != before) {
      p.snapshot_us.push_back(static_cast<double>(s1 - s0) / 1e3);
    }
  };

  // The daemon's own CPU: the process's minus the offering thread's.
  auto daemon_cpu_ns = [] {
    return static_cast<double>(process_cpu_ns()) -
           static_cast<double>(thread_cpu_ns());
  };
  rig.daemon->start();
  const std::uint64_t start = now_ns() + 1'000'000;
  std::uint64_t window_end = start + kWindowNs;
  double window_cpu0 = daemon_cpu_ns();
  std::uint64_t window_ticks = 0;
  for (std::uint64_t n = 0; n < n_ticks; ++n) {
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(static_cast<double>(n) * interval_ns);
    if (due >= window_end) {
      const double cpu = daemon_cpu_ns();
      p.win.add(window, static_cast<double>(window_ticks),
                static_cast<double>(kWindowNs) / 1e9, cpu - window_cpu0);
      window_cpu0 = cpu;
      window_ticks = 0;
      window_end += kWindowNs;
    }
    ++window_ticks;
    while (now_ns() < due) {
      if (!pending.empty()) poll();
    }
    const std::size_t lane = n % kLanes;
    const std::size_t tick = rig.sent[lane] % kTraceTicks;
    const std::uint64_t o0 = now_ns();
    const OfferResult r = rig.offer(lane);
    const std::uint64_t o1 = now_ns();
    p.late_us.push_back(static_cast<double>(o0 - due) / 1e3);
    p.offer_ns.push_back(static_cast<double>(o1 - o0));
    const std::uint32_t offer_span =
        traced ? log.record(offer_name, SpanLog::kNone, n, o0, o1)
               : SpanLog::kNone;
    if (r == OfferResult::kAccepted) {
      pending.push_back({lane, ++expect[lane], tick, n, due, offer_span});
    }
  }
  const std::uint64_t give_up = now_ns() + kVisibleTimeoutNs;
  while (!pending.empty() && now_ns() < give_up) poll();
  p.never_visible = pending.size();
  p.ticks = static_cast<double>(n_ticks);
  rig.daemon->stop();  // consumers drain what is left, then exit
  return p;
}

/// Bit-identity of lane 0's final published state against a serial facade
/// replaying every tick lane 0 was offered.
bool lane0_matches_serial(const HighRpm& golden, const Rig& rig,
                          const highrpm::serve::NodeStatus& got) {
  HighRpm node = golden;
  node.reset_stream();
  const std::size_t tf = kTenants * highrpm::sim::kNumPmcEvents;
  PowerEstimate e;
  for (std::size_t k = 0; k < rig.sent[0]; ++k) {
    const StreamTick& st = rig.in.lanes[0].ticks[k % kTraceTicks];
    e = node.on_tick(st.pmcs, std::span<const double>(st.tenant_pmcs.data(), tf),
                     st.has_reading ? std::optional<double>(st.reading_w)
                                    : std::nullopt);
  }
  bool same = got.ticks == rig.sent[0] &&
              std::bit_cast<std::uint64_t>(got.node_w) ==
                  std::bit_cast<std::uint64_t>(e.node_w) &&
              std::bit_cast<std::uint64_t>(got.cpu_w) ==
                  std::bit_cast<std::uint64_t>(e.cpu_w) &&
              std::bit_cast<std::uint64_t>(got.mem_w) ==
                  std::bit_cast<std::uint64_t>(e.mem_w) &&
              got.measured == e.measured;
  for (std::size_t k = 0; k < kTenants; ++k) {
    // Snapshots carry tenants at deciwatt resolution.
    same = same && std::llround(got.tenant_w[k] * 10.0) ==
                       static_cast<long long>(
                           highrpm::serve::tenant_deciwatts(e.tenant_w[k]));
  }
  return same;
}

/// Final checks on a stopped (hence fully drained) daemon: per-lane
/// accounting identity, no NaN estimates, lane 0 bit-identical to the serial
/// facade. Returns the number of failed checks.
std::uint64_t final_checks(const HighRpm& golden, const Rig& rig) {
  const DaemonSnapshot snap = rig.daemon->snapshot();
  std::uint64_t bad = 0;
  for (const highrpm::serve::NodeStatus& ns : snap.nodes) {
    if (ns.offered != ns.accepted + ns.shed + ns.dropped_readings) ++bad;
    if (!std::isfinite(ns.node_w) || !std::isfinite(ns.cpu_w) ||
        !std::isfinite(ns.mem_w)) {
      ++bad;
    }
  }
  if (!lane0_matches_serial(golden, rig, snap.nodes[0])) ++bad;
  return bad;
}

}  // namespace

Report run_serve_daemon(const Options& opt) {
  highrpm::runtime::set_thread_count(1);
  const Inputs in = make_inputs(opt.seed);

  // Set-up, repeated: golden initial learning + attribution fit + daemon
  // construction. The median is setup_s; the last daemon is measured.
  std::optional<HighRpm> golden;
  std::optional<Rig> rig;
  const SetupTimes setup = timed_setups(golden, golden_config(), rig, in);

  Report rep;
  rig->drain();  // untimed warm-up: the first drain in a process runs slow
  if (!opt.trace) {
    const std::vector<double> rates = rig->drains(opt.seconds * kDrainShare);
    const Paced p = paced(*rig, opt.seconds * (1.0 - kDrainShare), false);
    rep.add("setup_s", median(setup.total), "s");
    rep.add("ticks_per_s", decile_high(rates, Decile::kBest), "1/s");
    rep.add("cpu_ns_per_tick",
            decile_low(p.win.cpu_ns_per_tick, Decile::kWorst), "ns");
    rep.add("latency_p50_us", decile_low(p.win.p50_us, Decile::kBest), "us");
    rep.add("node_mape_pct", 100.0 * p.node_ape / p.node_n, "%");
    rep.add("tenant_mape_pct", 100.0 * p.tenant_ape / p.tenant_n, "%");
    const std::uint64_t bad = final_checks(*golden, *rig);
    rep.tally(rig->offered, rig->not_accepted + p.never_visible + bad);
    std::printf("serve-daemon: %zu drains, %.0f paced ticks, %llu not "
                "accepted, %llu never visible, %llu failed final checks\n",
                rates.size(), p.ticks,
                static_cast<unsigned long long>(rig->not_accepted),
                static_cast<unsigned long long>(p.never_visible),
                static_cast<unsigned long long>(bad));
    return rep;
  }

  // Traced run: untraced drains on the set-up daemon give the baseline for
  // the tracing overhead; a second daemon with cycle hooks runs the traced
  // drains and the paced phase.
  const std::vector<double> plain = rig->drains(opt.seconds * 0.2);
  std::uint64_t bad = final_checks(*golden, *rig);
  std::uint64_t attempted = rig->offered, failed = rig->not_accepted + bad;

  auto& registry = highrpm::obs::Registry::instance();
  auto probe = std::make_unique<CycleProbe>();
  Rig traced(in, *golden, probe->hooks());
  traced.drain();  // warm-up
  probe->clear();
  registry.reset();
  registry.set_enabled(true);
  probe->phase.store(0);
  const std::vector<double> rates = traced.drains(opt.seconds * 0.2);
  probe->phase.store(1);
  const double drain_consumed = registry_counter("serve.consumed");
  const Paced p = paced(traced, opt.seconds * 0.6, true);
  registry.set_enabled(false);
  bad = final_checks(*golden, traced);
  attempted += traced.offered;
  failed += traced.not_accepted + p.never_visible + bad;

  std::vector<double> drain_cycle_us, paced_cycle_us;
  double drain_work = 0, paced_cycles = 0, paced_work = 0;
  for (const auto& pc : probe->per) {
    drain_cycle_us.insert(drain_cycle_us.end(), pc.work_us[0].begin(),
                          pc.work_us[0].end());
    paced_cycle_us.insert(paced_cycle_us.end(), pc.work_us[1].begin(),
                          pc.work_us[1].end());
    drain_work += static_cast<double>(pc.work_cycles[0]);
    paced_cycles += static_cast<double>(pc.cycles[1]);
    paced_work += static_cast<double>(pc.work_cycles[1]);
  }
  rep.add("serve.offer_ns.p50", median(p.offer_ns), "ns");
  rep.add("serve.offer_ns.p99", quantile(p.offer_ns, 0.99), "ns");
  rep.add("serve.cycle_us.p50", median(drain_cycle_us), "us");
  rep.add("serve.cycle_us.p99", quantile(drain_cycle_us, 0.99), "us");
  rep.add("serve.paced_cycle_us.p50", median(paced_cycle_us), "us");
  rep.add("serve.paced_cycle_us.p99", quantile(paced_cycle_us, 0.99), "us");
  rep.add("serve.ticks_per_cycle", drain_consumed / drain_work, "count");
  rep.add("serve.work_cycle_share", paced_work / paced_cycles, "ratio");
  rep.add("serve.snapshot_us.p50", median(p.snapshot_us), "us");
  rep.add("serve.snapshot_us.p99", quantile(p.snapshot_us, 0.99), "us");
  rep.add("serve.generator_late_us.p99", quantile(p.late_us, 0.99), "us");
  rep.add("serve.generator_late_us.max", quantile(p.late_us, 1.0), "us");
  rep.add("serve.visible_p90_us", quantile(p.latency_us, 0.90), "us");
  rep.add("serve.visible_p99_us", quantile(p.latency_us, 0.99), "us");
  rep.add("serve.consumed", registry_counter("serve.consumed"), "count");
  rep.add("serve.shed_ticks", registry_counter("serve.shed_ticks"), "count");
  rep.add("serve.dropped_readings", registry_counter("serve.dropped_readings"),
          "count");
  rep.add("serve.held_fallback", registry_counter("serve.held_fallback"),
          "count");
  rep.add("serve.backpressure", registry_counter("serve.backpressure"),
          "count");
  rep.add("core.fleet.lane_ticks", registry_counter("core.fleet.lane_ticks"),
          "count");
  rep.add("core.highrpm.initial_learning_s", median(setup.learn), "s");
  rep.add("core.highrpm.fit_attribution_s", median(setup.attribution), "s");
  const double plain_tps = decile_high(plain, Decile::kBest);
  rep.add("obs.trace_overhead_pct",
          100.0 * (plain_tps - decile_high(rates, Decile::kBest)) / plain_tps,
          "%");
  rep.tally(attempted, failed);
  std::printf("serve-daemon (traced): %zu+%zu drains, %.0f paced ticks, "
              "%llu failed operations\n",
              plain.size(), rates.size(), p.ticks,
              static_cast<unsigned long long>(failed));
  return rep;
}

}  // namespace perfbench
