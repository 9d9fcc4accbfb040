#include "highrpm/serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "highrpm/sim/pmc.hpp"

namespace highrpm::serve {

Daemon::Daemon(const core::HighRpm& golden, std::size_t nodes,
               std::vector<std::string> node_suites, DaemonConfig cfg)
    : cfg_(std::move(cfg)), fleet_(golden, nodes, core::FleetConfig{}) {
  if (cfg_.consumers == 0) {
    throw std::invalid_argument("serve::Daemon: consumers must be >= 1");
  }
  if (cfg_.ring_capacity == 0) {
    throw std::invalid_argument("serve::Daemon: ring_capacity must be >= 1");
  }
  if (node_suites.size() != nodes) {
    throw std::invalid_argument(
        "serve::Daemon: node_suites must have one entry per node");
  }
  if (fleet_.tenants() > measure::kStreamMaxTenants) {
    throw std::invalid_argument(
        "serve::Daemon: attribution tenant count exceeds the ring slot "
        "capacity (measure::kStreamMaxTenants)");
  }
  if (cfg_.consumers > nodes) cfg_.consumers = nodes;

  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    auto ns = std::make_unique<NodeState>(cfg_.ring_capacity);
    const auto it =
        std::find(suites_.begin(), suites_.end(), node_suites[i]);
    if (it == suites_.end()) {
      ns->suite_idx = suites_.size();
      suites_.push_back(node_suites[i]);
      suite_err_mw_.push_back(std::make_unique<obs::Histogram>());
    } else {
      ns->suite_idx = static_cast<std::size_t>(it - suites_.begin());
    }
    nodes_.push_back(std::move(ns));
  }

  const std::size_t per = (nodes + cfg_.consumers - 1) / cfg_.consumers;
  for (std::size_t c = 0; c < cfg_.consumers; ++c) {
    const std::size_t begin = c * per;
    if (begin >= nodes) break;
    auto cs = std::make_unique<ConsumerState>();
    cs->begin = begin;
    cs->end = std::min(nodes, begin + per);
    consumers_.push_back(std::move(cs));
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("serve::Daemon: already running");
  }
  stop_.store(false, std::memory_order_release);
  const std::size_t f = sim::kNumPmcEvents;
  const unsigned hw = runtime::hardware_threads();
  for (std::size_t c = 0; c < consumers_.size(); ++c) {
    ConsumerState& cs = *consumers_[c];
    const std::size_t owned = cs.end - cs.begin;
    // Warm every staging buffer to its maximum size now so the drain cycle
    // never allocates (Matrix::resize and vector shrink/regrow are
    // capacity-preserving).
    cs.ids.reserve(owned);
    cs.staged.reserve(owned);
    cs.readings.assign(owned, std::nullopt);
    cs.out.assign(owned, core::PowerEstimate{});
    cs.rows.resize(owned, f);
    cs.held_row.resize(1, f);
    for (double& v : cs.held_row.row(0)) {
      v = std::numeric_limits<double>::quiet_NaN();
    }
    cs.held_reading.assign(1, std::nullopt);
    cs.held_out.assign(1, core::PowerEstimate{});
    if (fleet_.tenants() > 0) {
      const std::size_t tf = fleet_.tenants() * f;
      cs.trows.resize(owned, tf);
      cs.held_trow.resize(1, tf);
      for (double& v : cs.held_trow.row(0)) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t c = 0; c < consumers_.size(); ++c) {
    std::optional<unsigned> pin;
    if (cfg_.pin_consumers) pin = static_cast<unsigned>(c) % hw;
    consumers_[c]->worker.start([this, c] { consume_loop(c); }, pin);
  }
}

void Daemon::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& cs : consumers_) cs->worker.join();
  running_.store(false, std::memory_order_release);
}

OfferResult Daemon::offer(std::size_t node, const measure::StreamTick& tick) {
  static obs::Counter& offered_c =
      obs::Registry::instance().counter("serve.offered");
  static obs::Counter& accepted_c =
      obs::Registry::instance().counter("serve.accepted");
  static obs::Counter& shed_c =
      obs::Registry::instance().counter("serve.shed_ticks");
  static obs::Counter& dropped_r_c =
      obs::Registry::instance().counter("serve.dropped_readings");
  static obs::Counter& backpressure_c =
      obs::Registry::instance().counter("serve.backpressure");
  NodeState& ns = *nodes_.at(node);
  offered_c.add();
  const Enqueued e{tick, ns.pending_drop};
  if (ns.ring.try_push(e)) {
    ns.pending_drop = 0;
    ns.offers.count_accepted();
    accepted_c.add();
    return OfferResult::kAccepted;
  }
  if (!tick.has_reading) {
    // Sheddable: a predict-only tick only buys resolution; fold it into
    // the next accepted tick's gap count and move on.
    ns.offers.count_shed();
    shed_c.add();
    if (ns.pending_drop != UINT32_MAX) ++ns.pending_drop;
    return OfferResult::kShed;
  }
  // A reading tick is a training label — spend a bounded retry budget
  // before giving it up.
  ns.backpressure.add();
  backpressure_c.add();
  for (std::size_t r = 0; r < cfg_.offer_retries; ++r) {
    std::this_thread::yield();
    if (ns.ring.try_push(e)) {
      ns.pending_drop = 0;
      ns.offers.count_accepted();
      accepted_c.add();
      return OfferResult::kAccepted;
    }
  }
  ns.offers.count_dropped_reading();
  dropped_r_c.add();
  if (ns.pending_drop != UINT32_MAX) ++ns.pending_drop;
  return OfferResult::kDroppedReading;
}

void Daemon::consume_loop(std::size_t c) {
  ConsumerState& cs = *consumers_[c];
  std::size_t idle = 0;
  for (;;) {
    if (cfg_.hooks.before) cfg_.hooks.before(c);
    cs.busy.store(true, std::memory_order_release);
    const bool did_work = consume_cycle(cs);
    cs.busy.store(false, std::memory_order_release);
    if (cfg_.hooks.after) cfg_.hooks.after(c);
    if (did_work) {
      idle = 0;
      continue;
    }
    // Rings were all empty this cycle; exit once a stop was requested
    // (producers are done, nothing more can arrive).
    if (stop_.load(std::memory_order_acquire)) break;
    ++idle;
    if (idle <= 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

bool Daemon::consume_cycle(ConsumerState& cs) {
  static obs::Counter& consumed_c =
      obs::Registry::instance().counter("serve.consumed");
  static obs::Counter& held_c =
      obs::Registry::instance().counter("serve.held_fallback");
  cs.ids.clear();
  cs.staged.clear();
  for (std::size_t i = cs.begin; i < cs.end; ++i) {
    NodeState& ns = *nodes_[i];
    Enqueued e;
    if (!ns.ring.try_pop(e)) continue;
    // Bridge the shed gap before stepping the real tick: up to
    // held_fallback_cap held-row steps (all-NaN input row triggers the
    // last-good-row substitution; no reading). Keeps the lane's stream
    // state moving through gaps without paying full price for every
    // dropped tick.
    const auto gap = std::min<std::uint64_t>(e.dropped_before,
                                             cfg_.held_fallback_cap);
    for (std::uint64_t k = 0; k < gap; ++k) {
      const std::size_t id = i;
      fleet_.step_cohort(std::span<const std::size_t>(&id, 1), cs.held_row,
                         0, cs.held_reading,
                         std::span<core::PowerEstimate>(cs.held_out.data(), 1),
                         cs.cohort,
                         fleet_.tenants() > 0 ? &cs.held_trow : nullptr, 0);
      ns.held.add();
      held_c.add();
      ++ns.stepped;
    }
    cs.ids.push_back(i);
    cs.staged.push_back(e);
  }
  const std::size_t n = cs.staged.size();
  if (n == 0) return false;

  cs.rows.resize(n, cs.held_row.cols());
  const std::size_t tenants = fleet_.tenants();
  if (tenants > 0) cs.trows.resize(n, cs.held_trow.cols());
  for (std::size_t li = 0; li < n; ++li) {
    const measure::StreamTick& t = cs.staged[li].tick;
    const auto dst = cs.rows.row(li);
    std::copy(t.pmcs.begin(), t.pmcs.end(), dst.begin());
    if (tenants > 0) {
      // StreamTick's fixed tenant array zero-fills unused slots, so a
      // shorter (or single-tenant) producer yields all-zero tenant rows
      // rather than garbage.
      const auto tdst = cs.trows.row(li);
      std::copy(t.tenant_pmcs.begin(),
                t.tenant_pmcs.begin() + static_cast<std::ptrdiff_t>(tdst.size()),
                tdst.begin());
    }
    cs.readings[li] =
        t.has_reading ? std::optional<double>(t.reading_w) : std::nullopt;
  }
  fleet_.step_cohort(
      cs.ids, cs.rows, 0,
      std::span<const std::optional<double>>(cs.readings.data(), n),
      std::span<core::PowerEstimate>(cs.out.data(), n), cs.cohort,
      tenants > 0 ? &cs.trows : nullptr, 0);

  for (std::size_t li = 0; li < n; ++li) {
    NodeState& ns = *nodes_[cs.ids[li]];
    ++ns.stepped;
    consumed_c.add();
    const core::PowerEstimate& pe = cs.out[li];
    // Pack the lane's adaptive-controller state into the seqlock word.
    // Safe without extra synchronization: this consumer is the only thread
    // that steps (and therefore mutates) this lane's controller.
    std::uint64_t adapt_word = 0;
    if (const auto* ctl = fleet_.lane_controller(cs.ids[li])) {
      adapt_word = pack_adapt_state(
          static_cast<std::uint64_t>(ctl->mode()), ctl->mode_changes(),
          ctl->sparse_ticks());
    }
    ns.cell.publish({ns.stepped, pe.node_w, pe.cpu_w, pe.mem_w, pe.measured,
                     adapt_word,
                     pack_tenant_word(pe.tenant_w.data(), pe.tenants, 0),
                     pack_tenant_word(pe.tenant_w.data(), pe.tenants, 1)});
    // Restoration error vs. simulator truth, milliwatt resolution —
    // unmeasured (restored) ticks only; measured ticks reproduce the
    // reading by construction.
    if (!pe.measured && std::isfinite(pe.node_w)) {
      const double err = std::fabs(pe.node_w - cs.staged[li].tick.truth_node_w);
      const auto mw = static_cast<std::uint64_t>(std::llround(err * 1000.0));
      suite_err_mw_[ns.suite_idx]->record(mw);
      all_err_mw_.record(mw);
    }
  }
  return true;
}

void Daemon::quiesce() const {
  if (!running_.load(std::memory_order_acquire)) {
    throw std::logic_error("serve::Daemon::quiesce: daemon not running");
  }
  // Scan rings before busy flags: with producers quiet, an empty-ring
  // observation followed by an idle-consumer observation proves every
  // popped tick was published (busy covers pop -> publish, released
  // before busy=false). Confirm twice anyway.
  std::size_t confirms = 0;
  while (confirms < 2) {
    bool idle = true;
    for (const auto& ns : nodes_) {
      if (!ns->ring.empty()) {
        idle = false;
        break;
      }
    }
    if (idle) {
      for (const auto& cs : consumers_) {
        if (cs->busy.load(std::memory_order_acquire)) {
          idle = false;
          break;
        }
      }
    }
    if (idle) {
      ++confirms;
    } else {
      confirms = 0;
      std::this_thread::yield();
    }
  }
}

DaemonSnapshot Daemon::snapshot() const {
  DaemonSnapshot snap;
  snap.nodes.reserve(nodes_.size());
  for (const auto& ns : nodes_) {
    const NodeStatusCell::Value v = ns->cell.read();
    NodeStatus st;
    st.ticks = v.ticks;
    st.node_w = v.node_w;
    st.cpu_w = v.cpu_w;
    st.mem_w = v.mem_w;
    st.measured = v.measured;
    st.adapt_mode = adapt_mode_of(v.adapt);
    st.adapt_mode_changes = adapt_changes_of(v.adapt);
    st.adapt_cheap_ticks = adapt_cheap_of(v.adapt);
    st.tenants = fleet_.tenants();
    for (std::size_t k = 0; k < st.tenants; ++k) {
      st.tenant_w[k] = tenant_watts_of(v.tenant_lo, v.tenant_hi, k);
    }
    // offered and its outcomes come from one OfferCounts read, so the row
    // is exact even mid-ingestion; backpressure and held are outside the
    // identity and read on their own.
    const OfferCounts::Value oc = ns->offers.read();
    st.offered = oc.offered;
    st.accepted = oc.accepted;
    st.shed = oc.shed;
    st.dropped_readings = oc.dropped_readings;
    st.backpressure = ns->backpressure.value();
    st.held = ns->held.value();
    // Totals from the captured rows, never from a second racy read — the
    // aggregate always equals the sum of what this snapshot reports.
    snap.total_ticks += st.ticks;
    snap.total_offered += st.offered;
    snap.total_accepted += st.accepted;
    snap.total_shed += st.shed;
    snap.total_dropped_readings += st.dropped_readings;
    snap.total_held += st.held;
    snap.total_node_w += st.node_w;
    snap.total_cpu_w += st.cpu_w;
    snap.total_mem_w += st.mem_w;
    snap.nodes.push_back(st);
  }
  snap.suites.reserve(suites_.size());
  for (std::size_t s = 0; s < suites_.size(); ++s) {
    const obs::HistogramStats hs = suite_err_mw_[s]->stats();
    SuiteStats ss;
    ss.suite = suites_[s];
    ss.samples = hs.count;
    ss.err_p50_mw = hs.p50;
    ss.err_p99_mw = hs.p99;
    ss.err_max_mw = hs.max;
    snap.suites.push_back(std::move(ss));
  }
  return snap;
}

Producer::Producer(Daemon& daemon, std::vector<std::size_t> node_ids,
                   std::vector<measure::NodeTickStream> streams, Config cfg)
    : daemon_(daemon),
      node_ids_(std::move(node_ids)),
      streams_(std::move(streams)),
      cfg_(cfg) {
  if (node_ids_.size() != streams_.size()) {
    throw std::invalid_argument(
        "serve::Producer: node_ids and streams must align");
  }
}

void Producer::start() {
  worker_.start([this] { run(); });
}

void Producer::join() { worker_.join(); }

void Producer::run() {
  const std::size_t burst = cfg_.burst_len == 0 ? 1 : cfg_.burst_len;
  std::uint64_t emitted = 0;
  while (emitted < cfg_.ticks_per_node) {
    const auto take =
        std::min<std::uint64_t>(burst, cfg_.ticks_per_node - emitted);
    for (std::uint64_t k = 0; k < take; ++k) {
      for (std::size_t i = 0; i < node_ids_.size(); ++i) {
        daemon_.offer(node_ids_[i], streams_[i].next());
      }
    }
    emitted += take;
    if (cfg_.pause_us > 0 && emitted < cfg_.ticks_per_node) {
      std::this_thread::sleep_for(std::chrono::microseconds(cfg_.pause_us));
    }
  }
}

}  // namespace highrpm::serve
