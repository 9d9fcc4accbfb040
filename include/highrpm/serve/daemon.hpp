// serve::Daemon — the resident monitoring service: lock-free per-node
// ingestion, a sharded consumer pool draining through the fleet stepper's
// allocation-free cohort path, and a wait-free snapshot/query side.
//
// Data path:
//
//   producer threads        bounded SPSC rings         consumer pool
//   (one per node set) -->  (one per node)      -->    (owns disjoint
//   offer(node, tick)       Enqueued{tick,drops}       node ranges)
//                                                        |
//                                    FleetStepper::step_cohort (batched,
//                                    0 allocs/tick steady)   |
//                                                        v
//                           NodeStatusCell seqlocks  <--  publish
//                           + per-suite error histograms
//
// Overload degrades, never corrupts: a full ring sheds predict-only ticks
// (counted per node), while reading-carrying ticks get a bounded retry
// before they too are dropped (counted separately — losing a label costs
// model accuracy, losing a predict tick only costs resolution). Each shed
// tick is folded into the NEXT accepted tick's dropped_before count, so
// the consumer learns about gaps in-band and in order, and bridges each
// gap with up to held_fallback_cap held-row catch-up steps (the PR-2
// degradation machinery: last finite row substituted, no reading) before
// stepping the real tick.
//
// Determinism: with a fixed offer schedule per node and no sheds, every
// node's published estimate stream is bit-identical to the serial facade
// replaying the same ticks, for ANY consumer count — lanes never interact
// and step_cohort is grouping-invariant (the serve determinism suite pins
// snapshot byte-equality across consumer counts).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "highrpm/core/fleet.hpp"
#include "highrpm/measure/stream.hpp"
#include "highrpm/obs/obs.hpp"
#include "highrpm/runtime/worker.hpp"
#include "highrpm/serve/snapshot.hpp"
#include "highrpm/serve/spsc_ring.hpp"

namespace highrpm::serve {

/// One ring slot: the tick plus how many of this node's earlier ticks were
/// shed since the last accepted one (in-band gap reporting, preserves
/// per-node order). Trivially copyable, so ring transfer never allocates.
struct Enqueued {
  measure::StreamTick tick;
  std::uint32_t dropped_before = 0;
};

/// Outcome of one offer() call, for producer-side accounting.
enum class OfferResult {
  kAccepted,        // enqueued
  kShed,            // ring full, predict-only tick dropped (sheddable)
  kDroppedReading,  // ring full, reading tick dropped after bounded retries
};

struct DaemonConfig {
  /// Consumer threads; clamped to the node count. Must be >= 1.
  std::size_t consumers = 1;
  /// Per-node ring capacity (rounded up to a power of two). Must be >= 1.
  std::size_t ring_capacity = 1024;
  /// Max held-row catch-up steps bridged per gap — bounds the work a burst
  /// of sheds can demand, so overload cannot make the consumer fall further
  /// behind by paying full price for ticks it already dropped.
  std::size_t held_fallback_cap = 3;
  /// Bounded yield-retry budget for reading-carrying ticks at a full ring.
  std::size_t offer_retries = 1 << 14;
  /// Best-effort pin of consumer c to CPU (c mod hardware_concurrency).
  bool pin_consumers = false;
  /// Per-cycle callbacks on the consumer thread, immediately around each
  /// drain cycle — the hook the alloc-trace harness uses for per-thread
  /// arming (mirrors FleetStepper::ShardHooks).
  struct CycleHooks {
    std::function<void(std::size_t)> before;
    std::function<void(std::size_t)> after;
  };
  CycleHooks hooks;
};

class Daemon {
 public:
  /// Build a daemon for `nodes` lanes cloned from a trained golden
  /// instance. node_suites[i] names node i's workload suite (groups the
  /// restoration-error histograms); must have exactly `nodes` entries.
  /// Throws std::invalid_argument on consumers == 0, ring_capacity == 0,
  /// nodes == 0, or a suite-list size mismatch. A golden with a trained
  /// attribution head turns on K-way attribution end to end: offered
  /// StreamTicks' tenant rows feed the fleet's attribution GEMM and each
  /// cell publishes packed per-tenant watts — which requires the tenant
  /// count to fit a ring slot (<= measure::kStreamMaxTenants; throws
  /// otherwise).
  Daemon(const core::HighRpm& golden, std::size_t nodes,
         std::vector<std::string> node_suites, DaemonConfig cfg = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Launch the consumer pool. Throws std::logic_error if already running.
  void start();

  /// Stop the consumer pool: consumers finish draining whatever their
  /// rings hold, then exit. Call after the producers stopped offering.
  /// Idempotent.
  void stop();

  /// Offer one tick for `node`. SPSC contract: at most one thread offers
  /// to a given node at a time (different nodes may be offered to
  /// concurrently). Never blocks beyond the bounded reading retry.
  OfferResult offer(std::size_t node, const measure::StreamTick& tick);

  /// Wait until every ring is empty and every consumer is between cycles —
  /// i.e. every offered tick's effect is published. Precondition: the
  /// daemon is running and no thread is concurrently offering; throws
  /// std::logic_error when not running.
  void quiesce() const;

  /// One coherent read-out; safe to call at any time from any thread while
  /// ingestion continues. Each node's accounting row is exact even then:
  /// offered == accepted + shed + dropped_readings, where `offered` counts
  /// the offers that have returned (one still in its reading retry is not
  /// yet counted). Totals are sums of the captured per-node rows.
  DaemonSnapshot snapshot() const;

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  std::size_t nodes() const noexcept { return nodes_.size(); }
  std::size_t consumers() const noexcept { return consumers_.size(); }
  const core::FleetStepper& fleet() const noexcept { return fleet_; }

 private:
  struct NodeState {
    explicit NodeState(std::size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<Enqueued> ring;
    NodeStatusCell cell;
    // Ingestion accounting. `offers` publishes each completed offer
    // together with its outcome (exact live rows, see OfferCounts);
    // backpressure and held sit outside that identity and are plain
    // counters. pending_drop and stepped are plain because each has exactly
    // one writing thread (the node's producer / the node's owning consumer).
    OfferCounts offers;
    obs::Counter backpressure, held;
    std::uint32_t pending_drop = 0;  // producer-side shed run length
    std::uint64_t stepped = 0;       // consumer-side model ticks (incl. held)
    std::size_t suite_idx = 0;
  };

  /// Per-consumer state: the owned node range plus all staging buffers the
  /// drain cycle needs, preallocated at start() so the steady-state cycle
  /// performs zero heap allocations.
  struct ConsumerState {
    std::size_t begin = 0, end = 0;  // owned node range [begin, end)
    core::Cohort cohort;
    std::vector<std::size_t> ids;
    math::Matrix rows;
    std::vector<std::optional<double>> readings;
    std::vector<core::PowerEstimate> out;
    std::vector<Enqueued> staged;
    math::Matrix held_row;  // 1 x F, all-NaN: forces held-row substitution
    std::vector<std::optional<double>> held_reading;  // {nullopt}
    std::vector<core::PowerEstimate> held_out;
    // K-way attribution staging (sized only when the fleet carries an
    // attribution head). held_trow mirrors held_row: all-NaN so held
    // catch-up steps substitute the lane's last good tenant row too.
    math::Matrix trows;
    math::Matrix held_trow;
    std::atomic<bool> busy{false};
    runtime::Worker worker;
  };

  void consume_loop(std::size_t c);
  /// Drain at most one tick per owned node; returns whether any was found.
  bool consume_cycle(ConsumerState& cs);

  DaemonConfig cfg_;
  core::FleetStepper fleet_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<ConsumerState>> consumers_;
  std::vector<std::string> suites_;  // first-appearance order
  std::vector<std::unique_ptr<obs::Histogram>> suite_err_mw_;
  obs::Histogram all_err_mw_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

/// serve::Producer — a seeded per-node-set tick emitter on its own
/// runtime::Worker. Each producer owns a disjoint set of nodes and their
/// NodeTickStreams, emitting bursts round-robin across its nodes with an
/// optional pause between bursts (the bench's steady / bursty / overload
/// patterns are just parameter points of this schedule).
class Producer {
 public:
  struct Config {
    std::uint64_t ticks_per_node = 0;  // total ticks emitted per node
    std::size_t burst_len = 1;         // back-to-back ticks per node, per round
    std::uint64_t pause_us = 0;        // sleep between rounds (0 = flood)
  };

  /// node_ids[i] is fed from streams[i]; the two must align. The producer
  /// does not start until start().
  Producer(Daemon& daemon, std::vector<std::size_t> node_ids,
           std::vector<measure::NodeTickStream> streams, Config cfg);

  void start();
  /// Block until the schedule completes. Idempotent.
  void join();

 private:
  void run();

  Daemon& daemon_;
  std::vector<std::size_t> node_ids_;
  std::vector<measure::NodeTickStream> streams_;
  Config cfg_;
  runtime::Worker worker_;
};

}  // namespace highrpm::serve
