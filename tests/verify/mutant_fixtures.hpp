// Seeded-broken variants of the shipped lock-free protocols, used by
// mutant_test.cpp to prove the model checker actually catches the bug
// classes it exists for. Each mutant mirrors the production source
// (spsc_ring.hpp / snapshot.hpp) over verify::ModelBackend with exactly
// one weakening, selected by template parameters so the UNmutated
// configuration doubles as a sanity check that the mirror itself is
// faithful (it must pass the same sweeps the production template does).
//
// If a mutant stops being caught, the checker has lost the corresponding
// detection capability — ctest -L verify fails.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "highrpm/verify/verify.hpp"

namespace highrpm::verify_tests {

namespace hv = highrpm::verify;

/// SPSC ring mirror. PubOrder weakens the producer's tail publication,
/// PopOrder the consumer's head publication; SizeHeadFirst false restores
/// the historical tail-before-head load order in size() whose transient
/// underflow this PR fixed.
template <std::memory_order PubOrder, std::memory_order PopOrder,
          bool SizeHeadFirst>
class MutantRing {
 public:
  explicit MutantRing(std::size_t capacity) : capacity_(capacity) {
    slots_.resize(capacity_);  // power-of-two capacity assumed by tests
  }

  bool try_push(int item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head == capacity_) return false;
    slots_[tail & (capacity_ - 1)].write(item);
    tail_.store(tail + 1, PubOrder);  // mutant: relaxed loses the publish
    return true;
  }

  bool try_pop(int& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = slots_[head & (capacity_ - 1)].read();
    head_.store(head + 1, PopOrder);  // mutant: relaxed loses the handback
    return true;
  }

  std::size_t size() const {
    if constexpr (SizeHeadFirst) {
      const std::size_t head = head_.load(std::memory_order_acquire);
      const std::size_t tail = tail_.load(std::memory_order_acquire);
      return tail - head;
    } else {
      // The pre-fix order: a stale tail against a fresher head wraps the
      // subtraction to ~2^64.
      const std::size_t tail = tail_.load(std::memory_order_acquire);
      const std::size_t head = head_.load(std::memory_order_acquire);
      return tail - head;
    }
  }

 private:
  std::size_t capacity_;
  std::vector<hv::ModelRaw<int>> slots_;
  hv::ModelAtomic<std::size_t> head_{0};
  hv::ModelAtomic<std::size_t> tail_{0};
};

using CleanRing =
    MutantRing<std::memory_order_release, std::memory_order_release, true>;
using RingWeakPublish =
    MutantRing<std::memory_order_relaxed, std::memory_order_release, true>;
using RingWeakHandback =
    MutantRing<std::memory_order_release, std::memory_order_relaxed, true>;
using RingTailFirstSize =
    MutantRing<std::memory_order_release, std::memory_order_release, false>;

/// Seqlock mirror of BasicNodeStatusCell with a 2-field payload (enough to
/// tear). ReleaseFence false strips the writer's release fence; FinalRelease
/// false weakens the closing even-seq store to relaxed.
template <bool ReleaseFence, bool FinalRelease>
class MutantSeqlock {
 public:
  struct Value {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  void publish(const Value& v) {
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    if constexpr (ReleaseFence) {
      hv::ModelBackend::fence(std::memory_order_release);
    }
    a_.store(v.a, std::memory_order_relaxed);
    b_.store(v.b, std::memory_order_relaxed);
    seq_.store(s + 2, FinalRelease ? std::memory_order_release
                                   : std::memory_order_relaxed);
  }

  Value read() const {
    Value v;
    for (;;) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (s1 & 1) {
        hv::ModelBackend::yield();
        continue;
      }
      v.a = a_.load(std::memory_order_relaxed);
      v.b = b_.load(std::memory_order_relaxed);
      hv::ModelBackend::fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return v;
      hv::ModelBackend::yield();
    }
  }

 private:
  mutable hv::ModelAtomic<std::uint64_t> seq_{0};
  hv::ModelAtomic<std::uint64_t> a_{0};
  hv::ModelAtomic<std::uint64_t> b_{0};
};

using CleanSeqlock = MutantSeqlock<true, true>;
using SeqlockNoFence = MutantSeqlock<false, true>;
using SeqlockWeakClose = MutantSeqlock<true, false>;

/// OfferCounts mirror (snapshot.hpp BasicOfferCounts). PreFix restores the
/// historical protocol whose live rows were torn: offered bumped before the
/// outcome, and one read pass of the outcomes then offered, no retry.
/// PubOrder weakens the writer's publishing RMW of offered_, ReadOrder the
/// reader's load of it.
template <bool PreFix, std::memory_order PubOrder, std::memory_order ReadOrder>
class MutantOfferCounts {
 public:
  struct Value {
    std::uint64_t offered = 0, accepted = 0, shed = 0;
  };

  void count_accepted() { complete(accepted_); }
  void count_shed() { complete(shed_); }

  Value read() const {
    Value v;
    if constexpr (PreFix) {
      v.accepted = accepted_.load(std::memory_order_relaxed);
      v.shed = shed_.load(std::memory_order_relaxed);
      v.offered = offered_.load(std::memory_order_relaxed);
      return v;
    }
    for (;;) {
      v.offered = offered_.load(ReadOrder);
      v.accepted = accepted_.load(std::memory_order_relaxed);
      v.shed = shed_.load(std::memory_order_relaxed);
      if (v.accepted + v.shed == v.offered) return v;
      hv::ModelBackend::yield();
    }
  }

 private:
  void complete(hv::ModelAtomic<std::uint64_t>& outcome) {
    if constexpr (PreFix) {
      offered_.fetch_add(1, std::memory_order_relaxed);
      outcome.fetch_add(1, std::memory_order_relaxed);
    } else {
      outcome.fetch_add(1, std::memory_order_relaxed);
      offered_.fetch_add(1, PubOrder);
    }
  }

  hv::ModelAtomic<std::uint64_t> offered_{0};
  hv::ModelAtomic<std::uint64_t> accepted_{0};
  hv::ModelAtomic<std::uint64_t> shed_{0};
};

using CleanOfferCounts = MutantOfferCounts<false, std::memory_order_release,
                                           std::memory_order_acquire>;
using OfferCountsPreFix = MutantOfferCounts<true, std::memory_order_release,
                                            std::memory_order_acquire>;
using OfferCountsWeakPublish =
    MutantOfferCounts<false, std::memory_order_relaxed,
                      std::memory_order_acquire>;
using OfferCountsWeakRead =
    MutantOfferCounts<false, std::memory_order_release,
                      std::memory_order_relaxed>;

/// Counter mirror with a selectable lost-update bug: Atomic false replaces
/// the fetch_add with a load+store pair.
template <bool Atomic>
class MutantCounter {
 public:
  void add(std::uint64_t n) {
    if constexpr (Atomic) {
      value_.fetch_add(n, std::memory_order_relaxed);
    } else {
      const std::uint64_t v = value_.load(std::memory_order_relaxed);
      value_.store(v + n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  mutable hv::ModelAtomic<std::uint64_t> value_{0};
};

}  // namespace highrpm::verify_tests
