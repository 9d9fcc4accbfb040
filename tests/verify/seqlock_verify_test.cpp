// Model-checked serve::BasicNodeStatusCell — the daemon's seqlock, same
// template production ships, instantiated with verify::ModelBackend. The
// fence-based publish protocol (odd seq, release fence, relaxed payload,
// release even seq) is exactly the kind of code an SC-interleaving tool
// cannot falsify; the simulated weak memory here can (see the stripped-
// fence mutants in mutant_test.cpp for the converse direction).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "highrpm/math/float_eq.hpp"
#include "highrpm/serve/snapshot.hpp"
#include "highrpm/verify/verify.hpp"

namespace hv = highrpm::verify;
namespace math = highrpm::math;

namespace {

using ModelCell = highrpm::serve::BasicNodeStatusCell<hv::ModelBackend>;
using Value = ModelCell::Value;

/// Writer publishes generations g = 1..gens where every field is a fixed
/// function of g; readers check the returned set of fields is coherent
/// (all from the same generation). Doubles are small integers, so exact
/// equality is the right comparison.
Value gen_value(std::uint64_t g) {
  Value v;
  v.ticks = g;
  v.node_w = static_cast<double>(2 * g);
  v.cpu_w = static_cast<double>(3 * g);
  v.mem_w = static_cast<double>(5 * g);
  v.measured = (g % 2) == 1;
  v.adapt = 7 * g;
  v.tenant_lo = 11 * g;
  v.tenant_hi = 13 * g;
  return v;
}

void check_coherent(const Value& v) {
  const std::uint64_t g = v.ticks;
  hv::check(math::exact_eq(v.node_w, static_cast<double>(2 * g)),
            "torn node_w");
  hv::check(math::exact_eq(v.cpu_w, static_cast<double>(3 * g)),
            "torn cpu_w");
  hv::check(math::exact_eq(v.mem_w, static_cast<double>(5 * g)),
            "torn mem_w");
  hv::check(v.measured == ((g % 2) == 1), "torn measured");
  hv::check(v.adapt == 7 * g, "torn adapt");
  hv::check(v.tenant_lo == 11 * g, "torn tenant_lo");
  hv::check(v.tenant_hi == 13 * g, "torn tenant_hi");
}

void seqlock_setup(hv::Env& env, std::uint64_t gens, int readers,
                   std::uint64_t initial_seq) {
  auto cell = std::make_shared<ModelCell>(initial_seq);
  env.thread([cell, gens] {
    for (std::uint64_t g = 1; g <= gens; ++g) cell->publish(gen_value(g));
  });
  for (int i = 0; i < readers; ++i) {
    env.thread([cell] { check_coherent(cell->read()); });
  }
}

TEST(SeqlockVerify, ExhaustiveTwoPublishesOneReader) {
  // preemption_bound 2 (was 3 with the narrower 6-field payload): the two
  // tenant words widened every pass by 2 relaxed ops, and bound 3 now
  // exceeds the execution budget. Two preemptions still cover the
  // interesting schedules — writer lands mid-read (forced retry) and
  // reader lands mid-publish (odd-seq reject).
  hv::Options opts;
  opts.preemption_bound = 2;
  opts.stale_window = 2;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    seqlock_setup(env, 2, 1, 0);
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete) << "2-publish/1-reader shape must be exhausted";
  EXPECT_GT(r.executions, 1u);
}

TEST(SeqlockVerify, RandomSweepTwoReaders) {
  hv::Options opts;
  opts.mode = hv::Options::Mode::kRandom;
  opts.iterations = 300;
  opts.seed = 31;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    seqlock_setup(env, 3, 2, 0);
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_EQ(r.executions, 300u);
}

TEST(SeqlockVerify, SequenceCounterWraparoundIsCoherent) {
  // Start the (even) sequence counter 2 below 2^64 so the two publishes
  // drive it through UINT64_MAX-1 -> ... -> 0 -> 2. The protocol depends
  // only on parity and equality, never on magnitude, so wrap must be
  // invisible — this test pins that.
  hv::Options opts;
  opts.preemption_bound = 2;  // see ExhaustiveTwoPublishesOneReader
  opts.stale_window = 2;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    seqlock_setup(env, 2, 1, UINT64_MAX - 1);
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete) << "wraparound shape must be exhausted";
}

TEST(SeqlockVerify, ReaderRetriesAreBoundedByWriterProgress) {
  // Livelock bound: with a writer that publishes a bounded number of
  // generations, a reader can be forced to retry at most once per publish
  // plus one final clean pass. The scheduler's per-thread op ceiling over
  // ALL explored executions quantifies that: reads are 11 instrumented ops
  // per clean pass (seq, 8 payload loads, fence, recheck), so even the
  // worst schedule must stay within a small multiple of the publish count
  // — no unbounded spinning exists in the explored space. (A true reader
  // livelock — writer forever in flight — is impossible here because the
  // writer terminates; the checker's yield-parking plus this ceiling pin
  // the bound.)
  hv::Options opts;
  opts.preemption_bound = 2;  // see ExhaustiveTwoPublishesOneReader
  opts.stale_window = 2;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    seqlock_setup(env, 2, 1, 0);
  });
  ASSERT_FALSE(r.failed) << r.report();
  ASSERT_TRUE(r.complete);
  // Thread 1 is the reader (thread 0 the writer). Clean pass = 11 ops;
  // each of the 2 publishes can force at most one retry (11 ops) plus a
  // yield. Ceiling: 11 * (1 + 2) + 2 yields + slack.
  const std::uint64_t reader_ops = r.max_ops_per_thread[1];
  EXPECT_GT(reader_ops, 0u);
  EXPECT_LE(reader_ops, 52u)
      << "reader retried more than writer progress can explain";
}

TEST(SeqlockVerify, ProductionBackendStillWorksSingleThreaded) {
  highrpm::serve::NodeStatusCell cell;
  highrpm::serve::NodeStatusCell::Value v;
  v.ticks = 41;
  v.node_w = 10.5;
  v.cpu_w = 7.25;
  v.mem_w = 3.25;
  v.measured = true;
  v.adapt = highrpm::serve::pack_adapt_state(2, 5, 123);
  const double watts[6] = {12.34, 0.0, 100.0, 6553.5, 7000.0, 3.0};
  v.tenant_lo = highrpm::serve::pack_tenant_word(watts, 6, 0);
  v.tenant_hi = highrpm::serve::pack_tenant_word(watts, 6, 1);
  cell.publish(v);
  const auto got = cell.read();
  EXPECT_EQ(got.ticks, 41u);
  EXPECT_EQ(got.node_w, 10.5);
  EXPECT_EQ(got.cpu_w, 7.25);
  EXPECT_EQ(got.mem_w, 3.25);
  EXPECT_TRUE(got.measured);
  EXPECT_EQ(highrpm::serve::adapt_mode_of(got.adapt), 2u);
  EXPECT_EQ(highrpm::serve::adapt_changes_of(got.adapt), 5u);
  EXPECT_EQ(highrpm::serve::adapt_cheap_of(got.adapt), 123u);
  using highrpm::serve::tenant_watts_of;
  // Deciwatt round-trip, saturation at 6553.5 W, zero padding past count.
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 0), 12.3);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 1), 0.0);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 2), 100.0);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 3), 6553.5);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 4), 6553.5);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 5), 3.0);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 6), 0.0);
  EXPECT_EQ(tenant_watts_of(got.tenant_lo, got.tenant_hi, 7), 0.0);
}

}  // namespace
