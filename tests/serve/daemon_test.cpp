// serve::Daemon functional contract: config validation, ingestion
// accounting (offered == accepted + shed + dropped_readings), graceful
// overload degradation (shed ticks bridged by bounded held-row catch-up),
// and live querying while producers and consumers run (the binary carries
// the serve-sanitize label — TSan checks the whole concurrent path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "highrpm/serve/daemon.hpp"
#include "serve_test_util.hpp"

namespace highrpm::serve {
namespace {

namespace tu = testutil;

class ServeDaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new core::HighRpm(tu::train_golden());
  }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }
  static core::HighRpm* golden_;
};

core::HighRpm* ServeDaemonTest::golden_ = nullptr;

TEST_F(ServeDaemonTest, ValidatesConfigurationBoundaries) {
  DaemonConfig zero_consumers;
  zero_consumers.consumers = 0;
  EXPECT_THROW(Daemon(*golden_, 2, tu::node_suites(2), zero_consumers),
               std::invalid_argument);

  DaemonConfig zero_ring;
  zero_ring.ring_capacity = 0;
  EXPECT_THROW(Daemon(*golden_, 2, tu::node_suites(2), zero_ring),
               std::invalid_argument);

  // Suite list must align with the fleet.
  EXPECT_THROW(Daemon(*golden_, 2, tu::node_suites(3)),
               std::invalid_argument);
  // Zero nodes rejected (by the fleet it wraps).
  EXPECT_THROW(Daemon(*golden_, 0, {}), std::invalid_argument);

  // Consumers clamp to the node count.
  DaemonConfig many;
  many.consumers = 64;
  Daemon d(*golden_, 3, tu::node_suites(3), many);
  EXPECT_EQ(d.consumers(), 3u);
  EXPECT_EQ(d.nodes(), 3u);
  EXPECT_FALSE(d.running());
  EXPECT_THROW(d.quiesce(), std::logic_error);
}

TEST_F(ServeDaemonTest, DrainsEveryOfferedTickAndAccountsExactly) {
  const std::size_t nodes = 3;
  const std::uint64_t ticks = 48;
  DaemonConfig cfg;
  cfg.consumers = 2;
  cfg.ring_capacity = 256;  // roomy: nothing sheds
  Daemon daemon(*golden_, nodes, tu::node_suites(nodes), cfg);
  daemon.start();
  EXPECT_TRUE(daemon.running());
  EXPECT_THROW(daemon.start(), std::logic_error);

  std::vector<measure::NodeTickStream> streams;
  for (std::size_t i = 0; i < nodes; ++i) streams.push_back(tu::make_stream(i));
  for (std::uint64_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_EQ(daemon.offer(i, streams[i].next()), OfferResult::kAccepted);
    }
  }
  daemon.quiesce();
  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  daemon.stop();  // idempotent

  ASSERT_EQ(snap.nodes.size(), nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeStatus& n = snap.nodes[i];
    EXPECT_EQ(n.offered, ticks) << "node " << i;
    EXPECT_EQ(n.accepted, ticks);
    EXPECT_EQ(n.shed, 0u);
    EXPECT_EQ(n.dropped_readings, 0u);
    EXPECT_EQ(n.held, 0u);
    EXPECT_EQ(n.ticks, ticks);  // every accepted tick was stepped
    EXPECT_TRUE(std::isfinite(n.node_w));
    EXPECT_TRUE(std::isfinite(n.cpu_w));
    EXPECT_TRUE(std::isfinite(n.mem_w));
    EXPECT_GT(n.node_w, 0.0);
  }
  EXPECT_EQ(snap.total_offered, nodes * ticks);
  EXPECT_EQ(snap.total_accepted, nodes * ticks);
  EXPECT_EQ(snap.total_ticks, nodes * ticks);

  // Error histograms grouped by the suites actually deployed, with mass
  // only from unmeasured (restored) ticks, and internally ordered.
  ASSERT_FALSE(snap.suites.empty());
  std::uint64_t samples = 0;
  for (const SuiteStats& s : snap.suites) {
    samples += s.samples;
    EXPECT_LE(s.err_p50_mw, s.err_p99_mw) << s.suite;
    EXPECT_LE(s.err_p99_mw, s.err_max_mw) << s.suite;
  }
  EXPECT_GT(samples, 0u);
  EXPECT_LE(samples, nodes * ticks);

  // The canonical text form mentions every node and ends with the totals.
  const std::string text = to_string(snap);
  EXPECT_NE(text.find("node 2 "), std::string::npos);
  EXPECT_NE(text.find("totals ticks="), std::string::npos);
}

TEST(ServeDaemonAttribution, TenantSplitsFlowEndToEnd) {
  // A tenant-trained golden: the daemon stages per-cgroup rows from the
  // stream ring, the fleet's attribution GEMM splits each lane, and the
  // seqlock cells publish the split at deciwatt resolution.
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, tu::kSeed + 70));
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, tu::kSeed + 71));
  core::HighRpmConfig gcfg;
  gcfg.dynamic_trr.rnn.epochs = 8;
  gcfg.dynamic_trr.online_finetune = false;
  gcfg.srr.epochs = 20;
  gcfg.tenants = 2;
  gcfg.tenant_srr.epochs = 30;
  core::HighRpm golden(gcfg);
  golden.initial_learning(runs);
  golden.fit_attribution(runs);

  const std::size_t nodes = 2;
  const std::uint64_t ticks = 40;
  DaemonConfig cfg;
  cfg.consumers = 2;
  cfg.ring_capacity = 256;
  Daemon daemon(golden, nodes, tu::node_suites(nodes), cfg);
  daemon.start();
  std::vector<measure::NodeTickStream> streams;
  for (std::size_t i = 0; i < nodes; ++i) {
    streams.emplace_back(sim::PlatformConfig::arm(), mix,
                         tu::kSeed + 3000 + i);
  }
  for (std::uint64_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_EQ(daemon.offer(i, streams[i].next()), OfferResult::kAccepted);
    }
  }
  daemon.quiesce();
  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();

  ASSERT_EQ(snap.nodes.size(), nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeStatus& n = snap.nodes[i];
    EXPECT_EQ(n.ticks, ticks);
    ASSERT_EQ(n.tenants, 2u) << "node " << i;
    double sum = 0.0;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_TRUE(std::isfinite(n.tenant_w[k]));
      EXPECT_GE(n.tenant_w[k], 0.0);
      sum += n.tenant_w[k];
    }
    // Both tenants run real work: the split is non-degenerate and lands in
    // the node's dynamic-power ballpark (deciwatt-quantized).
    EXPECT_GT(n.tenant_w[0], 0.0);
    EXPECT_GT(n.tenant_w[1], 0.0);
    EXPECT_NEAR(sum, n.node_w - golden.attribution_srr().config().p_other_w,
                0.5 * n.node_w);
    for (std::size_t k = 2; k < kSnapshotMaxTenants; ++k) {
      EXPECT_EQ(n.tenant_w[k], 0.0);
    }
  }
  const std::string text = to_string(snap);
  EXPECT_NE(text.find("tenants=2"), std::string::npos) << text;
  EXPECT_NE(text.find("t0_w="), std::string::npos) << text;
  EXPECT_NE(text.find("t1_w="), std::string::npos) << text;
}

TEST(ServeDaemonAttribution, SelfCalibratingLanesMatchSerialFacade) {
  // A self-calibrating golden: each daemon lane buffers its measured ticks,
  // tracks its own drift EWMA and recalibrates its own copy of the
  // attribution head, exactly as a serial facade clone fed the same stream.
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, tu::kSeed + 70));
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, tu::kSeed + 71));
  core::HighRpmConfig gcfg;
  gcfg.dynamic_trr.rnn.epochs = 8;
  gcfg.dynamic_trr.online_finetune = false;
  gcfg.srr.epochs = 20;
  gcfg.tenants = 2;
  gcfg.tenant_srr.epochs = 30;
  gcfg.self_cal.enabled = true;
  gcfg.self_cal.drift_threshold_pct = 6.0;
  gcfg.self_cal.buffer_ticks = 8;
  gcfg.self_cal.min_buffered = 4;
  gcfg.self_cal.cooldown_ticks = 40;
  core::HighRpm golden(gcfg);
  golden.initial_learning(runs);
  golden.fit_attribution(runs);

  // Node 0 runs on a platform whose per-op energy scaled up 1.25x, which
  // the PMC-only head cannot see; node 1 on the training platform.
  sim::PlatformConfig hot = sim::PlatformConfig::arm();
  hot.power.inst_energy_nj *= 1.25;
  hot.power.mem_energy_nj *= 1.25;
  hot.power.dyn_scale *= 1.25;
  const std::size_t nodes = 2;
  const std::uint64_t ticks = 160;
  const auto make = [&](std::size_t i) {
    return measure::NodeTickStream(i == 0 ? hot : sim::PlatformConfig::arm(),
                                   mix, tu::kSeed + 3000 + i);
  };

  std::vector<core::PowerEstimate> ref(nodes);
  std::size_t triggers = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    core::HighRpm node = golden;
    node.reset_stream();
    auto stream = make(i);
    for (std::uint64_t t = 0; t < ticks; ++t) {
      const measure::StreamTick tick = stream.next();
      const std::optional<double> reading =
          tick.has_reading ? std::optional<double>(tick.reading_w)
                           : std::nullopt;
      ref[i] = node.on_tick(
          tick.pmcs,
          std::span<const double>(tick.tenant_pmcs.data(),
                                  2 * sim::kNumPmcEvents),
          reading);
    }
    triggers += node.self_cal_triggers();
  }
  ASSERT_GE(triggers, 1u) << "the drifted node never recalibrated";

  DaemonConfig cfg;
  cfg.consumers = 2;
  cfg.ring_capacity = 256;  // roomy: nothing sheds
  Daemon daemon(golden, nodes, tu::node_suites(nodes), cfg);
  daemon.start();
  std::vector<measure::NodeTickStream> streams;
  for (std::size_t i = 0; i < nodes; ++i) streams.push_back(make(i));
  for (std::uint64_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(daemon.offer(i, streams[i].next()), OfferResult::kAccepted);
    }
  }
  daemon.quiesce();
  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();

  ASSERT_EQ(snap.nodes.size(), nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeStatus& n = snap.nodes[i];
    EXPECT_EQ(n.ticks, ticks);
    // Exact equality on purpose: bit identity with the serial path.
    EXPECT_EQ(n.node_w, ref[i].node_w) << "node " << i;
    EXPECT_EQ(n.cpu_w, ref[i].cpu_w) << "node " << i;
    EXPECT_EQ(n.mem_w, ref[i].mem_w) << "node " << i;
    EXPECT_EQ(n.measured, ref[i].measured) << "node " << i;
    ASSERT_EQ(n.tenants, 2u) << "node " << i;
    // The cell carries the split at deciwatt resolution.
    const std::uint64_t lo = pack_tenant_word(ref[i].tenant_w.data(), 2, 0);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(n.tenant_w[k], tenant_watts_of(lo, 0, k))
          << "node " << i << " tenant " << k;
    }
  }
}

TEST(ServeDaemonAttribution, RejectsHeadWiderThanStreamSlots) {
  // StreamTick's fixed ring slot carries at most kStreamMaxTenants rows;
  // a wider attribution head could never be fed, so the ctor refuses it.
  constexpr std::size_t k = measure::kStreamMaxTenants + 1;
  static_assert(k <= core::kMaxTenants, "widen StreamTick or this test");
  measure::Collector collector;
  std::vector<sim::Workload> mix;
  for (std::size_t i = 0; i < k; ++i) mix.push_back(tu::workload_for_node(i));
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           120, tu::kSeed + 80));
  core::HighRpmConfig gcfg;
  gcfg.dynamic_trr.rnn.epochs = 8;
  gcfg.dynamic_trr.online_finetune = false;
  gcfg.srr.epochs = 20;
  gcfg.tenants = k;
  gcfg.tenant_srr.epochs = 20;
  core::HighRpm golden(gcfg);
  golden.initial_learning(runs);
  golden.fit_attribution(runs);
  EXPECT_THROW(Daemon(golden, 2, tu::node_suites(2)), std::invalid_argument);
}

TEST_F(ServeDaemonTest, OverloadShedsGracefullyWithHeldFallback) {
  // One node, capacity-1 ring, daemon NOT yet started: the first offer is
  // accepted, further predict-only ticks shed, a reading tick exhausts its
  // bounded retry and is dropped. Starting the daemon then drains the one
  // queued tick; the next accepted tick reports the gap and the consumer
  // bridges it with at most held_fallback_cap held steps.
  DaemonConfig cfg;
  cfg.consumers = 1;
  cfg.ring_capacity = 1;
  cfg.held_fallback_cap = 3;
  cfg.offer_retries = 4;  // keep the doomed retry cheap
  Daemon daemon(*golden_, 1, tu::node_suites(1), cfg);

  auto stream = tu::make_stream(0);
  EXPECT_EQ(daemon.offer(0, stream.next()), OfferResult::kAccepted);
  std::uint64_t shed = 0;
  std::uint64_t dropped_readings = 0;
  // Push until we have seen both overload outcomes.
  while (shed < 9 || dropped_readings < 1) {
    measure::StreamTick t = stream.next();
    if (dropped_readings == 0 && shed >= 9) t.has_reading = true;
    const OfferResult r = daemon.offer(0, t);
    ASSERT_NE(r, OfferResult::kAccepted) << "ring should stay full";
    if (r == OfferResult::kShed) ++shed;
    if (r == OfferResult::kDroppedReading) ++dropped_readings;
  }

  daemon.start();
  daemon.quiesce();  // drains the single queued tick (gap = 0)
  // The next accepted tick carries the accumulated gap.
  EXPECT_EQ(daemon.offer(0, stream.next()), OfferResult::kAccepted);
  daemon.quiesce();
  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();

  const NodeStatus& n = snap.nodes.at(0);
  EXPECT_EQ(n.shed, shed);
  EXPECT_EQ(n.dropped_readings, dropped_readings);
  EXPECT_GE(n.backpressure, 1u);
  EXPECT_EQ(n.accepted, 2u);
  EXPECT_EQ(n.held, 3u);  // gap >= 10 clamped to held_fallback_cap
  EXPECT_EQ(n.ticks, 2u + 3u);  // two real ticks + three held steps
  EXPECT_TRUE(std::isfinite(n.node_w));
  EXPECT_GT(snap.total_shed, 0u);
}

TEST_F(ServeDaemonTest, LiveQueriesWhileIngesting) {
  // Producer thread floods; the test thread queries concurrently. Every
  // snapshot observed mid-flight must be internally coherent: totals equal
  // the row sums, accounting identity holds per node, estimates are never
  // NaN once a node has stepped.
  const std::size_t nodes = 4;
  DaemonConfig cfg;
  cfg.consumers = 2;
  cfg.ring_capacity = 8;  // small: force real shedding under flood
  cfg.offer_retries = 16;
  Daemon daemon(*golden_, nodes, tu::node_suites(nodes), cfg);
  daemon.start();

  std::vector<measure::NodeTickStream> streams;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    streams.push_back(tu::make_stream(i));
    ids.push_back(i);
  }
  Producer::Config pcfg;
  pcfg.ticks_per_node = 400;
  pcfg.burst_len = 32;
  pcfg.pause_us = 0;  // flood
  Producer producer(daemon, ids, std::move(streams), pcfg);
  producer.start();

  for (int iter = 0; iter < 50; ++iter) {
    const DaemonSnapshot snap = daemon.snapshot();
    std::uint64_t offered = 0, accepted = 0, shed = 0, dropped = 0;
    for (const NodeStatus& n : snap.nodes) {
      // Reads race the producer, but each node's row comes from one
      // instant between two completed offers (outcome bumped first,
      // offered published second), so the identity is exact mid-flight —
      // over the accept, shed and dropped-reading paths alike.
      EXPECT_EQ(n.offered, n.accepted + n.shed + n.dropped_readings);
      if (n.ticks > 0) {
        EXPECT_TRUE(std::isfinite(n.node_w));
        EXPECT_TRUE(std::isfinite(n.cpu_w));
        EXPECT_TRUE(std::isfinite(n.mem_w));
      }
      offered += n.offered;
      accepted += n.accepted;
      shed += n.shed;
      dropped += n.dropped_readings;
    }
    EXPECT_EQ(snap.total_offered, offered);
    EXPECT_EQ(snap.total_accepted, accepted);
    EXPECT_EQ(snap.total_shed, shed);
    EXPECT_EQ(snap.total_dropped_readings, dropped);
    (void)to_string(snap);  // formatting a live snapshot is safe too
  }

  producer.join();
  producer.join();  // idempotent
  daemon.quiesce();
  const DaemonSnapshot last = daemon.snapshot();
  daemon.stop();
  EXPECT_EQ(last.total_offered, nodes * 400u);
  EXPECT_EQ(last.total_accepted + last.total_shed +
                last.total_dropped_readings,
            last.total_offered);
  for (const NodeStatus& n : last.nodes) {
    EXPECT_TRUE(std::isfinite(n.node_w));
  }
}

}  // namespace
}  // namespace highrpm::serve
