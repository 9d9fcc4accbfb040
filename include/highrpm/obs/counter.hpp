// obs::Counter — the always-on atomic event counter.
//
// Counter is deliberately NOT gated by HIGHRPM_OBS_ENABLED: components use
// it for *functional* diagnostics (DynamicTrr::rejected_readings(),
// HighRpm::held_rows(), ...) whose values callers assert on, so the type
// must keep counting even in a no-op observability build. What the
// HIGHRPM_OBS gate removes is the *telemetry* layer on top — registry
// registration, span timing, and export (see registry.hpp / span.hpp).
//
// All operations use relaxed atomics: counters carry no ordering contract,
// only totals, and at HighRPM's increment rates (a handful per monitoring
// tick) a relaxed fetch_add is far below measurement noise. Copying loads
// the source's value — that keeps classes with Counter members (DynamicTrr
// is copied once per fleet lane, HighRpm per monitored node) copyable, each
// copy continuing from the source's count.
//
// Templated over an atomics backend (verify/backend.hpp) so the model
// checker can prove fetch_add loses no updates and the value is monotone
// under add(); production uses the Counter alias (plain std::atomic).
// obs/ is the sanctioned home for relaxed atomics in the memory-order-audit
// lint — no per-line justification needed here.
#pragma once

#include <atomic>
#include <cstdint>

#include "highrpm/verify/backend.hpp"

namespace highrpm::obs {

template <typename Backend = highrpm::verify::StdBackend>
class BasicCounter {
 public:
  constexpr BasicCounter() noexcept = default;

  BasicCounter(const BasicCounter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  BasicCounter& operator=(const BasicCounter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  typename Backend::template Atomic<std::uint64_t> value_{0};
};

/// Production instantiation — plain std::atomic, zero template overhead.
using Counter = BasicCounter<>;

}  // namespace highrpm::obs
