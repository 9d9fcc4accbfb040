// obs::Span — RAII tracing span: times a scope and records the duration
// (nanoseconds) into a Histogram on destruction.
//
// Spans nest: each thread keeps its own depth via a thread_local, so spans
// opened inside thread-pool workers attach to the worker's own stack — a
// parallel_for task timing itself never interleaves with the caller's span.
// Span::depth() exposes the current thread's nesting level (0 outside any
// span), which tests use to prove nesting and pool-awareness. A span built
// with the kUnnested tag times its scope without opening a level: a
// dispatcher such as ThreadPool::run times the job it runs this way, so
// the tasks it executes on the calling thread nest under the caller's own
// spans, exactly like the tasks a pool worker runs.
//
// Cost model: when the registry's runtime switch is off, constructing a
// span is one relaxed atomic load and no clock read. When on, it is two
// steady_clock reads plus one histogram record (~tens of ns) — small
// against the microsecond-scale model steps it wraps, and bench_overhead
// measures the end-to-end difference (EXPERIMENTS.md "Self-overhead").
//
// With HIGHRPM_OBS_ENABLED compiled to 0 the span is an empty shell: no
// members beyond the mandatory byte, every method a constant.
#pragma once

#ifndef HIGHRPM_OBS_ENABLED
#define HIGHRPM_OBS_ENABLED 1
#endif

#include <cstdint>

#include "highrpm/obs/registry.hpp"

#if HIGHRPM_OBS_ENABLED
#include <chrono>
#endif

namespace highrpm::obs {

/// Tag selecting the Span constructor that records a duration without
/// pushing a nesting level (see the header comment).
struct Unnested {};
inline constexpr Unnested kUnnested{};

#if HIGHRPM_OBS_ENABLED

inline namespace obs_enabled {

namespace detail {
/// Current thread's span nesting depth. Defined inline so the header stays
/// self-contained; one instance per thread across the whole process.
inline thread_local std::size_t t_span_depth = 0;
}  // namespace detail

class Span {
 public:
  /// Time into an already-resolved histogram (the hot-path form — pair it
  /// with a function-local static Histogram& lookup).
  explicit Span(Histogram& hist) noexcept : Span(hist, kUnnested) {
    if (hist_ == nullptr) return;
    nested_ = true;
    ++detail::t_span_depth;
  }

  /// Time into `hist` without opening a nesting level: depth() inside the
  /// scope stays what it was outside it.
  Span(Histogram& hist, Unnested) noexcept {
    if (!Registry::instance().enabled()) return;
    hist_ = &hist;
    start_ = std::chrono::steady_clock::now();
  }

  /// Convenience form: registry lookup by name on every construction. Fine
  /// for per-run stages (fit, restore); avoid in per-tick code.
  explicit Span(std::string_view name)
      : Span(Registry::instance().histogram(name)) {}

  ~Span() {
    if (hist_ == nullptr) return;
    hist_->record(elapsed_ns());
    if (nested_) --detail::t_span_depth;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is live (registry was enabled at construction).
  bool active() const noexcept { return hist_ != nullptr; }

  /// Nanoseconds since construction (0 while inactive).
  std::uint64_t elapsed_ns() const noexcept {
    if (hist_ == nullptr) return 0;
    const auto d = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  }

  /// Current thread's nesting depth (0 outside any active span).
  static std::size_t depth() noexcept { return detail::t_span_depth; }

 private:
  Histogram* hist_ = nullptr;
  bool nested_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace obs_enabled

#else  // !HIGHRPM_OBS_ENABLED

inline namespace obs_disabled {

/// No-op shell: construction and destruction compile to nothing.
class Span {
 public:
  explicit Span(Histogram&) noexcept {}
  Span(Histogram&, Unnested) noexcept {}
  explicit Span(std::string_view) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  bool active() const noexcept { return false; }
  std::uint64_t elapsed_ns() const noexcept { return 0; }
  static std::size_t depth() noexcept { return 0; }
};

}  // namespace obs_disabled

#endif  // HIGHRPM_OBS_ENABLED

}  // namespace highrpm::obs
