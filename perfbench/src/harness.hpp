// Shared plumbing for the repository benchmark: clocks, sample statistics,
// the metric report, the in-memory span log and the host probe.
//
// The benchmark measures every layer from outside: it times calls into the
// layer's public functions and reads the obs::Registry histograms and
// counters the library already records. Nothing here is linked into the
// library.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/sim/phase.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the whole run
  bool trace = false;     // per-layer (traced) run instead of end-to-end
};

/// Monotonic wall clock (steady_clock) in nanoseconds.
std::uint64_t now_ns();
/// CPU time of the whole process / of the calling thread, in nanoseconds.
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns();

/// Sample quantile with linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: its metrics plus the operation tally the
/// correctness checks produced.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count `n` operations, `bad` of which failed.
  void tally(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

/// In-memory span log: (name, start, end, parent, tick id) records around
/// the public calls the benchmark makes, written out when the run ends.
/// Slots are claimed with one atomic increment, so pool workers and serve
/// consumers record concurrently; a full log drops further spans and counts
/// them. Disabled (capacity 0) unless the run is traced.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Allocate room for `capacity` spans. Call before any recording.
  void enable(std::size_t capacity);
  /// Register a span name; call before recording starts.
  std::uint16_t name(std::string_view n);

  /// Open a span starting now; returns its id (kNone when disabled/full).
  std::uint32_t open(std::uint16_t name, std::uint32_t parent,
                     std::uint64_t tick);
  /// Close span `id` now (no-op for kNone).
  void close(std::uint32_t id);
  /// Record a span whose start and end the caller already measured.
  std::uint32_t record(std::uint16_t name, std::uint32_t parent,
                       std::uint64_t tick, std::uint64_t start_ns,
                       std::uint64_t end_ns);

  std::uint64_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept;
  /// CSV: id,name,start_ns,end_ns,parent,tick (parent empty for roots).
  /// Call only after every recording thread has been joined.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t tick = 0;
    std::uint32_t parent = kNone;
    std::uint16_t name = 0;
  };
  std::uint32_t claim();

  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_{0};
  std::vector<std::string> names_;
};

/// The process-wide span log.
SpanLog& spans();

/// Facts that let a reader tell a noisy host from a regression. They never
/// adjust any metric.
struct HostFacts {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  /// 1 s busy-loop probe: the longest gap between consecutive clock reads
  /// (time the thread was not running) and how many gaps exceeded 50 us.
  double busy_gap_max_us = 0.0;
  std::uint64_t busy_gaps_over_50us = 0;
};
HostFacts probe_host(double busy_seconds);

/// Registry read-outs for the traced run (nanosecond histograms reported
/// in microseconds).
double registry_counter(std::string_view name);
double registry_quantile_us(std::string_view histogram, double q);

/// Per-node workload rotation shared by all three workloads (the fleet
/// and serve benches' fixed fft/stream/hpcg/graph500 rotation).
highrpm::sim::Workload rotation_workload(std::size_t i);
/// Node i's two co-located tenants: neighbours in the rotation.
std::vector<highrpm::sim::Workload> tenant_pair(std::size_t i);

/// Seed of the golden models' training corpus. Fixed rather than taken
/// from the run seed: the trained golden is part of the system under test,
/// so set-up work and model quality are the same in every run, while the
/// run seed varies the traffic the monitor sees.
inline constexpr std::uint64_t kCorpusSeed = 2023;

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// The two-tenant training corpus agent-finetune and serve-daemon share:
/// one 300-tick ARM run of every tenant pair the lanes use.
std::vector<highrpm::measure::CollectedRun> tenant_corpus();

/// Wall times of each set-up, in seconds.
struct SetupTimes {
  std::vector<double> total, learn, attribution;
};

/// Set up kSetups times: train `golden` from `in.training` (plus the
/// attribution head when cfg.tenants > 0), then build `rig` from `in` and
/// the golden. The previous rig is torn down before the clock starts; the
/// last golden and rig stay.
template <typename Rig, typename Inputs>
SetupTimes timed_setups(std::optional<highrpm::core::HighRpm>& golden,
                        const highrpm::core::HighRpmConfig& cfg,
                        std::optional<Rig>& rig, const Inputs& in) {
  SetupTimes st;
  for (std::size_t r = 0; r < kSetups; ++r) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    golden.emplace(cfg);
    golden->initial_learning(in.training);
    const std::uint64_t t1 = now_ns();
    if (cfg.tenants > 0) golden->fit_attribution(in.training);
    const std::uint64_t t2 = now_ns();
    rig.emplace(in, *golden);
    const std::uint64_t t3 = now_ns();
    st.learn.push_back(static_cast<double>(t1 - t0) / 1e9);
    st.attribution.push_back(static_cast<double>(t2 - t1) / 1e9);
    st.total.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
  return st;
}

/// Seed derivation: distinct, reproducible streams per (run seed, purpose,
/// index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index);

/// Per-layer metrics the host probe and the span log contribute to every
/// traced run.
void add_host_metrics(Report& r, const HostFacts& host);

/// Timing figures are taken per window, a fixed slice of the measured work,
/// and a run reports one decile of its per-window values. Interference from
/// other tenants of a shared host only ever makes a window slower, and it
/// comes in two shapes (README.md, "Host noise"): a descheduled vCPU stalls
/// every thread waiting at a barrier, and a busy sibling core slows a
/// thread by ~40% for seconds at a time. Workloads whose threads meet at a
/// barrier report their best-decile window; the single-threaded workload
/// and every CPU-time figure, which a stall does not inflate, report the
/// worst-decile window, the speed sustained in 9 windows out of 10.
enum class Decile { kBest, kWorst };

struct Windows {
  std::vector<double> ticks_per_s, cpu_ns_per_tick, p50_us;

  /// Close one window from its per-tick latency samples (us), the work it
  /// did, the time that work took and the CPU it used.
  void add(std::vector<double>& latency_us, double ticks, double busy_s,
           double cpu_ns);
};
/// The chosen decile of per-window values of a higher- or lower-is-better
/// figure.
double decile_high(const std::vector<double>& per_window, Decile d);
double decile_low(const std::vector<double>& per_window, Decile d);

}  // namespace perfbench
