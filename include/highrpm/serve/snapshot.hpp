// serve snapshot types — the query side of the resident monitoring daemon.
//
// Consumers publish each node's latest estimate into a NodeStatusCell, a
// seqlock: one writer (the consumer that owns the node), any number of
// readers, readers never block the writer. The daemon's snapshot() walks
// the cells plus the per-node counters into a DaemonSnapshot — a plain
// value the caller owns, safe to format or diff while ingestion continues.
//
// Coherence contract: a successful NodeStatusCell::read returns one
// writer-published state in full (all fields from the same publish).
// A successful OfferCounts::read returns one node's ingestion accounting as
// it stood between two completed offers, so each row balances exactly even
// while producers run. DaemonSnapshot totals are computed from the per-node
// values actually captured in that snapshot, so totals always equal the sum
// of the rows — no torn aggregate can escape.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "highrpm/verify/backend.hpp"

namespace highrpm::serve {

/// Tenant capacity of a snapshot row — matches core::kMaxTenants without
/// pulling the core headers into the seqlock's include set.
inline constexpr std::size_t kSnapshotMaxTenants = 8;

/// One node's latest published state, as captured by a coherent read.
struct NodeStatus {
  std::uint64_t ticks = 0;  // ticks stepped through the model (incl. held)
  double node_w = 0.0;
  double cpu_w = 0.0;
  double mem_w = 0.0;
  bool measured = false;  // last tick carried an accepted IM reading
  /// K-way attribution, decoded from the cell's two packed tenant words at
  /// deciwatt (0.1 W) resolution. First `tenants` entries valid; 0 when the
  /// fleet runs without an attribution head.
  std::uint64_t tenants = 0;
  std::array<double, kSnapshotMaxTenants> tenant_w{};
  // Ingestion accounting (the node's OfferCounts row, read at snapshot
  // time). `offered` counts COMPLETED offers — an offer still in its
  // reading-retry loop is not yet counted — and every row, live or
  // quiesced, is exact: offered == accepted + shed + dropped_readings.
  // backpressure and held are separate counters outside that identity.
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;             // sheddable ticks dropped at a full ring
  std::uint64_t dropped_readings = 0; // reading ticks lost despite retries
  std::uint64_t backpressure = 0;     // bounded retry rounds spent on readings
  std::uint64_t held = 0;             // held-row catch-up steps executed
  // Adaptive-sampling controller state (decoded from the cell's packed
  // `adapt` word; all zero when the fleet runs without a controller).
  std::uint64_t adapt_mode = 0;          // 0 = off, 1 = sparse, 2 = dense
  std::uint64_t adapt_mode_changes = 0;  // saturating 31-bit counter
  std::uint64_t adapt_cheap_ticks = 0;   // saturating 31-bit counter
};

/// The per-node controller state travels through the seqlock as ONE packed
/// word rather than three more atomic fields: the payload stays small (the
/// model-checker suites sweep every payload store/load interleaving, and
/// each extra field multiplies that state space) and the three values are
/// coherent with each other by construction. Layout: bits 0-1 mode
/// (0 = controller off), bits 2-32 mode_changes, bits 33-63 cheap_ticks
/// (both saturating at 2^31 - 1).
constexpr std::uint64_t pack_adapt_state(std::uint64_t mode,
                                         std::uint64_t mode_changes,
                                         std::uint64_t cheap_ticks) noexcept {
  constexpr std::uint64_t kMax31 = (std::uint64_t{1} << 31) - 1;
  const std::uint64_t changes = mode_changes > kMax31 ? kMax31 : mode_changes;
  const std::uint64_t cheap = cheap_ticks > kMax31 ? kMax31 : cheap_ticks;
  return (mode & std::uint64_t{3}) | (changes << 2) | (cheap << 33);
}
constexpr std::uint64_t adapt_mode_of(std::uint64_t word) noexcept {
  return word & std::uint64_t{3};
}
constexpr std::uint64_t adapt_changes_of(std::uint64_t word) noexcept {
  return (word >> 2) & ((std::uint64_t{1} << 31) - 1);
}
constexpr std::uint64_t adapt_cheap_of(std::uint64_t word) noexcept {
  return (word >> 33) & ((std::uint64_t{1} << 31) - 1);
}

/// Per-tenant watts travel through the seqlock as TWO packed words (4
/// tenants x 16 bits each), the same small-payload tradeoff as the adapt
/// word: the model-checker sweeps every payload store/load interleaving,
/// and 8 more atomic doubles would explode that state space. Encoding is
/// deciwatts saturating at 6553.5 W per tenant (far above any node budget);
/// non-finite or negative inputs encode as 0. Snapshot-side tenant
/// resolution is therefore 0.1 W — diagnostics, not the estimation path
/// (the exact doubles stay in PowerEstimate).
constexpr std::uint64_t tenant_deciwatts(double w) noexcept {
  if (!(w > 0.0)) return 0;  // also catches NaN
  const double dw = w * 10.0 + 0.5;
  return dw >= 65535.0 ? std::uint64_t{65535} : static_cast<std::uint64_t>(dw);
}
/// Pack tenants [4*word_idx, 4*word_idx+4) of `watts` into one word.
constexpr std::uint64_t pack_tenant_word(const double* watts, std::size_t count,
                                         std::size_t word_idx) noexcept {
  std::uint64_t word = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::size_t k = 4 * word_idx + s;
    if (k < count) word |= tenant_deciwatts(watts[k]) << (16 * s);
  }
  return word;
}
/// Decode tenant k's watts from the (lo, hi) word pair.
constexpr double tenant_watts_of(std::uint64_t lo, std::uint64_t hi,
                                 std::size_t k) noexcept {
  const std::uint64_t word = k < 4 ? lo : hi;
  return static_cast<double>((word >> (16 * (k % 4))) & std::uint64_t{0xFFFF}) /
         10.0;
}

/// Restoration-error summary over one workload suite (milliwatts, from the
/// daemon's per-suite histograms; populated only for unmeasured ticks —
/// measured ticks restore the reading exactly by construction).
struct SuiteStats {
  std::string suite;
  std::uint64_t samples = 0;
  std::uint64_t err_p50_mw = 0;
  std::uint64_t err_p99_mw = 0;
  std::uint64_t err_max_mw = 0;
};

/// One coherent daemon read-out. Totals are sums of the per-node rows
/// captured in this same snapshot.
struct DaemonSnapshot {
  std::vector<NodeStatus> nodes;
  std::vector<SuiteStats> suites;
  std::uint64_t total_ticks = 0;
  std::uint64_t total_offered = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_shed = 0;
  std::uint64_t total_dropped_readings = 0;
  std::uint64_t total_held = 0;
  double total_node_w = 0.0;
  double total_cpu_w = 0.0;
  double total_mem_w = 0.0;
};

/// Canonical text form (%.17g doubles, one line per node/suite) — the byte
/// stream the serve determinism tests compare across consumer counts.
std::string to_string(const DaemonSnapshot& snap);

/// Seqlock cell: single writer, concurrent readers. The sequence counter is
/// even when the payload is stable and odd while a publish is in flight;
/// payload fields are individually atomic (relaxed) so concurrent access is
/// data-race-free by construction (TSan-clean), and the seq protocol makes
/// the *set* of fields coherent: read() only returns a payload bracketed by
/// two equal even sequence reads.
///
/// Templated over an atomics backend (verify/backend.hpp): production uses
/// the default StdBackend alias below (plain std::atomic, identical codegen
/// to the untemplated original); the model-checker suites instantiate
/// BasicNodeStatusCell<verify::ModelBackend> to verify the fence protocol
/// under simulated weak memory and to prove the mutation fixtures
/// (stripped fence, weakened final store) torn-readable.
template <typename Backend = verify::StdBackend>
class BasicNodeStatusCell {
 public:
  struct Value {
    std::uint64_t ticks = 0;
    double node_w = 0.0;
    double cpu_w = 0.0;
    double mem_w = 0.0;
    bool measured = false;
    /// Packed adaptive-controller state (pack_adapt_state; 0 = no
    /// controller).
    std::uint64_t adapt = 0;
    /// Packed per-tenant watts (pack_tenant_word; both 0 when the fleet
    /// has no attribution head). lo = tenants 0-3, hi = tenants 4-7.
    std::uint64_t tenant_lo = 0;
    std::uint64_t tenant_hi = 0;
  };

  BasicNodeStatusCell() = default;
  /// Start the sequence counter at `initial_seq` (must be even — an odd
  /// start would read as a publish forever in flight). Exists so the
  /// wraparound suite can model-check the counter crossing 2^64.
  explicit BasicNodeStatusCell(std::uint64_t initial_seq)
      : seq_(initial_seq) {}

  /// Writer side (one thread at a time).
  void publish(const Value& v) {
    const std::uint64_t s =  // HIGHRPM_LINT_ALLOW(memory-order-audit): writer-owned counter, no other writer
        seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): odd marker ordered by the fence below
    // The fence keeps the payload stores below from reordering before the
    // odd store above — a reader that observes any new payload value and
    // then re-checks seq_ must see it odd (or already advanced) and retry.
    Backend::fence(std::memory_order_release);
    ticks_.store(v.ticks, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    node_w_.store(v.node_w, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    cpu_w_.store(v.cpu_w, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    mem_w_.store(v.mem_w, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    measured_.store(v.measured, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    adapt_.store(v.adapt, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    tenant_lo_.store(v.tenant_lo, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    tenant_hi_.store(v.tenant_hi, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
    seq_.store(s + 2, std::memory_order_release);  // even: stable again
  }

  /// Reader side: spins until it brackets a stable payload. Wait-free in
  /// practice — publishes are a handful of stores, so retries are rare.
  Value read() const {
    Value v;
    for (;;) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (s1 & 1) {  // publish in flight; yield so a preempted writer
        Backend::yield();  // (single-core box) can finish it
        continue;
      }
      v.ticks = ticks_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.node_w = node_w_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.cpu_w = cpu_w_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.mem_w = mem_w_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.measured = measured_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.adapt = adapt_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.tenant_lo = tenant_lo_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      v.tenant_hi = tenant_hi_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): payload ordered by seqlock fences
      Backend::fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return v;  // HIGHRPM_LINT_ALLOW(memory-order-audit): recheck ordered by the fence above
      Backend::yield();
    }
  }

 private:
  template <typename T>
  using Atomic = typename Backend::template Atomic<T>;

  Atomic<std::uint64_t> seq_{0};
  Atomic<std::uint64_t> ticks_{0};
  Atomic<double> node_w_{0.0};
  Atomic<double> cpu_w_{0.0};
  Atomic<double> mem_w_{0.0};
  Atomic<bool> measured_{false};
  Atomic<std::uint64_t> adapt_{0};
  Atomic<std::uint64_t> tenant_lo_{0};
  Atomic<std::uint64_t> tenant_hi_{0};
};

/// Production instantiation — plain std::atomic, zero template overhead.
using NodeStatusCell = BasicNodeStatusCell<>;

/// Per-node ingestion accounting: how many offers completed, and how each
/// one ended. One writer (the node's producer, per the daemon's SPSC offer
/// contract), any number of readers.
///
/// Contract: read() returns the counts as they stood at one instant between
/// two completed offers, so offered == accepted + shed + dropped_readings in
/// every row — also while ingestion runs.
///
/// Protocol: a completed offer bumps its outcome counter first and `offered`
/// second, with a release RMW. read() loads `offered` with acquire, which
/// makes the outcome bumps of every offer it counts visible, so the outcome
/// sum is never below it; then it loads the three outcome counters and
/// retries until they sum to `offered`. Every counter only grows, so a sum
/// equal to `offered` pins each outcome to its value right after that offer
/// completed: the row is exact, not merely balanced. The common path costs
/// four loads, as the plain counters did; a retry happens only when a read
/// straddles an offer's two bumps.
///
/// Templated over an atomics backend like BasicNodeStatusCell: the daemon
/// uses the OfferCounts alias, the model-checker suite instantiates
/// BasicOfferCounts<verify::ModelBackend>.
template <typename Backend = verify::StdBackend>
class BasicOfferCounts {
 public:
  struct Value {
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t dropped_readings = 0;
  };

  /// Writer side: record one completed offer and its outcome.
  void count_accepted() { complete(accepted_); }
  void count_shed() { complete(shed_); }
  void count_dropped_reading() { complete(dropped_readings_); }

  /// Reader side: spins (with a yield, so a preempted writer on the same
  /// core can finish its offer) until the row balances.
  Value read() const {
    Value v;
    for (;;) {
      v.offered = offered_.load(std::memory_order_acquire);
      v.accepted = accepted_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): ordered after the acquire of offered_
      v.shed = shed_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): ordered after the acquire of offered_
      v.dropped_readings = dropped_readings_.load(std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): ordered after the acquire of offered_
      if (v.accepted + v.shed + v.dropped_readings == v.offered) return v;
      Backend::yield();
    }
  }

 private:
  using Atomic = typename Backend::template Atomic<std::uint64_t>;

  void complete(Atomic& outcome) {
    outcome.fetch_add(1, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): published by the release RMW of offered_ below
    offered_.fetch_add(1, std::memory_order_release);
  }

  Atomic offered_{0};
  Atomic accepted_{0};
  Atomic shed_{0};
  Atomic dropped_readings_{0};
};

/// Production instantiation — plain std::atomic, zero template overhead.
using OfferCounts = BasicOfferCounts<>;

}  // namespace highrpm::serve
