#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "highrpm/workloads/suites.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // cut at the first NUL
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void Windows::add(std::vector<double>& latency_us, double ticks,
                  double busy_s, double cpu_ns) {
  ticks_per_s.push_back(ticks / busy_s);
  cpu_ns_per_tick.push_back(cpu_ns / ticks);
  if (!latency_us.empty()) p50_us.push_back(quantile(latency_us, 0.5));
  latency_us.clear();
}

double decile_high(const std::vector<double>& per_window, Decile d) {
  return quantile(per_window, d == Decile::kBest ? 0.9 : 0.1);
}

double decile_low(const std::vector<double>& per_window, Decile d) {
  return quantile(per_window, d == Decile::kBest ? 0.1 : 0.9);
}

void SpanLog::enable(std::size_t capacity) {
  spans_.assign(capacity, Span{});
  next_.store(0);
}

std::uint16_t SpanLog::name(std::string_view n) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(n);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanLog::claim() {
  if (spans_.empty()) return kNone;
  const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  return i < spans_.size() ? static_cast<std::uint32_t>(i) : kNone;
}

std::uint32_t SpanLog::open(std::uint16_t name, std::uint32_t parent,
                            std::uint64_t tick) {
  const std::uint32_t id = claim();
  if (id != kNone) spans_[id] = {now_ns(), 0, tick, parent, name};
  return id;
}

void SpanLog::close(std::uint32_t id) {
  if (id != kNone) spans_[id].end_ns = now_ns();
}

std::uint32_t SpanLog::record(std::uint16_t name, std::uint32_t parent,
                              std::uint64_t tick, std::uint64_t start_ns,
                              std::uint64_t end_ns) {
  const std::uint32_t id = claim();
  if (id != kNone) spans_[id] = {start_ns, end_ns, tick, parent, name};
  return id;
}

std::uint64_t SpanLog::recorded() const noexcept {
  return std::min<std::uint64_t>(next_.load(), spans_.size());
}

std::uint64_t SpanLog::dropped() const noexcept {
  const std::uint64_t n = next_.load();
  return n > spans_.size() ? n - spans_.size() : 0;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,name,start_ns,end_ns,parent,tick\n";
  char buf[160];
  const std::uint64_t n = recorded();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent == kNone) {
      std::snprintf(buf, sizeof(buf), "%llu,%s,%llu,%llu,,%llu\n",
                    static_cast<unsigned long long>(i),
                    names_[s.name].c_str(),
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns),
                    static_cast<unsigned long long>(s.tick));
    } else {
      std::snprintf(buf, sizeof(buf), "%llu,%s,%llu,%llu,%u,%llu\n",
                    static_cast<unsigned long long>(i),
                    names_[s.name].c_str(),
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns), s.parent,
                    static_cast<unsigned long long>(s.tick));
    }
    out << buf;
  }
  return static_cast<bool>(out);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

HostFacts probe_host(double busy_seconds) {
  HostFacts h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_model();
  h.compiler = __VERSION__;
  h.build_type = PERFBENCH_BUILD_TYPE;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(busy_seconds * 1e9);
  std::uint64_t prev = now_ns();
  std::uint64_t max_gap = 0;
  for (std::uint64_t t = prev; t < end; prev = t) {
    t = now_ns();
    const std::uint64_t gap = t - prev;
    max_gap = std::max(max_gap, gap);
    if (gap > 50000) ++h.busy_gaps_over_50us;
  }
  h.busy_gap_max_us = static_cast<double>(max_gap) / 1e3;
  return h;
}

double registry_counter(std::string_view name) {
  return static_cast<double>(
      highrpm::obs::Registry::instance().counter(name).value());
}

double registry_quantile_us(std::string_view histogram, double q) {
  return static_cast<double>(
             highrpm::obs::Registry::instance().histogram(histogram).quantile(
                 q)) /
         1e3;
}

highrpm::sim::Workload rotation_workload(std::size_t i) {
  switch (i % 4) {
    case 0: return highrpm::workloads::fft();
    case 1: return highrpm::workloads::stream();
    case 2: return highrpm::workloads::hpcg();
    default: return highrpm::workloads::graph500_bfs();
  }
}

std::vector<highrpm::sim::Workload> tenant_pair(std::size_t i) {
  return {rotation_workload(i), rotation_workload(i + 1)};
}

std::vector<highrpm::measure::CollectedRun> tenant_corpus() {
  const highrpm::measure::Collector collector;
  std::vector<highrpm::measure::CollectedRun> runs;
  for (std::size_t i = 0; i < 4; ++i) {
    runs.push_back(collector.collect_tenants(
        highrpm::sim::PlatformConfig::arm(), tenant_pair(i), 300,
        derive_seed(kCorpusSeed, 10, i)));
  }
  return runs;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  // splitmix64 over the three inputs: nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull +
                    index * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFull;
}

void add_host_metrics(Report& r, const HostFacts& host) {
  r.add("host.busy_gap_max_us", host.busy_gap_max_us, "us");
  r.add("host.busy_gaps_over_50us",
        static_cast<double>(host.busy_gaps_over_50us), "count");
}

}  // namespace perfbench
