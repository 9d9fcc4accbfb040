// Mutation-detection suite: every seeded-broken protocol variant in
// mutant_fixtures.hpp MUST be caught by the model checker, and each clean
// mirror configuration MUST pass the same sweep — otherwise the checker
// (or the mirror) has regressed and ctest -L verify fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "mutant_fixtures.hpp"

namespace hv = highrpm::verify;
namespace hvt = highrpm::verify_tests;

namespace {

// ---------------------------------------------------------------------
// Ring: producer pushes 1..total through capacity 1, consumer pops all.

template <typename Ring>
void ring_setup(hv::Env& env, int total) {
  struct Shared {
    Shared() : ring(1) {}
    Ring ring;
  };
  auto s = std::make_shared<Shared>();
  env.thread([s, total] {
    for (int i = 1; i <= total; ++i) {
      while (!s->ring.try_push(i)) hv::ModelBackend::yield();
    }
  });
  env.thread([s, total] {
    int item = 0;
    int expect = 1;
    while (expect <= total) {
      if (s->ring.try_pop(item)) {
        hv::check(item == expect, "FIFO order violated");
        ++expect;
      } else {
        hv::ModelBackend::yield();
      }
    }
  });
}

template <typename Ring>
hv::Result explore_ring(int total) {
  hv::Options opts;
  opts.preemption_bound = 4;
  opts.stale_window = 2;
  return hv::explore(
      opts, [total](hv::Env& env) { ring_setup<Ring>(env, total); });
}

TEST(MutantRing, CleanMirrorPassesExhaustively) {
  const auto r = explore_ring<hvt::CleanRing>(2);
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete);
}

TEST(MutantRing, WeakTailPublishIsCaught) {
  // tail_.store(..., relaxed): the consumer's acquire load of tail_ no
  // longer synchronizes with the slot write — a data race on the slot.
  const auto r = explore_ring<hvt::RingWeakPublish>(2);
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("data race"), std::string::npos) << r.report();
}

TEST(MutantRing, WeakHeadHandbackIsCaught) {
  // head_.store(..., relaxed): the producer's acquire load of head_ no
  // longer synchronizes with the consumer's slot read, so the wrapping
  // push (capacity 1, item 2 reuses slot 0) races the consumer's read.
  const auto r = explore_ring<hvt::RingWeakHandback>(2);
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("data race"), std::string::npos) << r.report();
}

TEST(MutantRing, TailFirstSizeUnderflowIsCaught) {
  // The pre-fix size() (tail loaded before head): an observer holding a
  // stale tail against a fresher head wraps to ~2^64. This pins the
  // SpscRing::size() fix made in this PR — reverting it must fail here.
  struct Shared {
    Shared() : ring(1) {}
    hvt::RingTailFirstSize ring;
  };
  constexpr int kTotal = 2;
  hv::Options opts;
  opts.preemption_bound = 4;
  opts.stale_window = 2;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    auto s = std::make_shared<Shared>();
    env.thread([s] {
      for (int i = 1; i <= kTotal; ++i) {
        while (!s->ring.try_push(i)) hv::ModelBackend::yield();
      }
    });
    env.thread([s] {
      int item = 0;
      int seen = 0;
      while (seen < kTotal) {
        if (s->ring.try_pop(item)) {
          ++seen;
        } else {
          hv::ModelBackend::yield();
        }
      }
    });
    env.thread([s] {
      for (int i = 0; i < 2; ++i) {
        hv::check(s->ring.size() <= kTotal, "size() underflowed");
      }
    });
  });
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("underflow"), std::string::npos) << r.report();
}

// ---------------------------------------------------------------------
// Seqlock: writer publishes generations with b = 10 * a; readers must
// never see a mixed-generation pair.

template <typename Cell>
void seqlock_setup(hv::Env& env, std::uint64_t gens) {
  auto cell = std::make_shared<Cell>();
  env.thread([cell, gens] {
    for (std::uint64_t g = 1; g <= gens; ++g) {
      cell->publish({g, 10 * g});
    }
  });
  env.thread([cell] {
    const auto v = cell->read();
    hv::check(v.b == 10 * v.a, "torn seqlock read");
  });
}

template <typename Cell>
hv::Result explore_seqlock(std::uint64_t gens) {
  hv::Options opts;
  opts.preemption_bound = 3;
  opts.stale_window = 2;
  return hv::explore(
      opts, [gens](hv::Env& env) { seqlock_setup<Cell>(env, gens); });
}

TEST(MutantSeqlock, CleanMirrorPassesExhaustively) {
  const auto r = explore_seqlock<hvt::CleanSeqlock>(2);
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete);
}

TEST(MutantSeqlock, StrippedReleaseFenceIsCaught) {
  // Without the writer's release fence the payload stores carry no
  // ordering: a reader can pair a fresh a_ with a stale b_ behind a clean
  // double seq check. Under any SC interleaving this protocol looks
  // correct — only the weak-memory simulation exposes it.
  const auto r = explore_seqlock<hvt::SeqlockNoFence>(2);
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("torn"), std::string::npos) << r.report();
}

TEST(MutantSeqlock, RelaxedClosingStoreIsCaught) {
  // seq_.store(s + 2, relaxed): the closing store no longer publishes the
  // payload, so a reader that enters through a fresh even seq can still
  // read stale payload halves.
  const auto r = explore_seqlock<hvt::SeqlockWeakClose>(2);
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("torn"), std::string::npos) << r.report();
}

// ---------------------------------------------------------------------
// OfferCounts: writer records accepted, shed, accepted; the reader's row
// must balance AND equal the writer's counts after `offered` offers.

template <typename Counts>
void offer_counts_setup(hv::Env& env) {
  auto c = std::make_shared<Counts>();
  env.thread([c] {
    c->count_accepted();
    c->count_shed();
    c->count_accepted();
  });
  env.thread([c] {
    const auto v = c->read();
    hv::check(v.offered == v.accepted + v.shed,
              "offer counted without its outcome");
    // Prefix of accepted, shed, accepted: shed is 1 from the 2nd offer on.
    hv::check(v.shed == (v.offered >= 2 ? 1u : 0u),
              "torn offer row: balanced, but not one instant");
  });
}

template <typename Counts>
hv::Result explore_offer_counts() {
  hv::Options opts;
  opts.preemption_bound = 2;
  opts.stale_window = 2;
  return hv::explore(opts,
                     [](hv::Env& env) { offer_counts_setup<Counts>(env); });
}

TEST(MutantOfferCounts, CleanMirrorPassesExhaustively) {
  const auto r = explore_offer_counts<hvt::CleanOfferCounts>();
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete);
}

TEST(MutantOfferCounts, PreFixProtocolIsCaught) {
  // offered bumped before the outcome and read in one pass: a read landing
  // between the two bumps reports an offer with no outcome — the torn live
  // row the adaptive soak saw on multi-core hosts.
  const auto r = explore_offer_counts<hvt::OfferCountsPreFix>();
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("without its outcome"), std::string::npos)
      << r.report();
}

TEST(MutantOfferCounts, RelaxedPublishIsCaught) {
  // A relaxed RMW of offered no longer carries the outcome bumps with it:
  // the reader can pair a fresh shed with a stale accepted and still find
  // the row balanced. Only the one-instant check sees it.
  const auto r = explore_offer_counts<hvt::OfferCountsWeakPublish>();
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("torn offer row"), std::string::npos) << r.report();
}

TEST(MutantOfferCounts, RelaxedReadIsCaught) {
  const auto r = explore_offer_counts<hvt::OfferCountsWeakRead>();
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  EXPECT_NE(r.reason.find("torn offer row"), std::string::npos) << r.report();
}

// ---------------------------------------------------------------------
// Counter lost update — also the replay-by-seed demonstration.

TEST(MutantCounter, CleanFetchAddPassesExhaustively) {
  hv::Options opts;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    auto c = std::make_shared<hvt::MutantCounter<true>>();
    env.thread([c] { c->add(1); });
    env.thread([c] { c->add(1); });
    env.finally([c] { hv::check(c->value() == 2, "lost update"); });
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete);
}

TEST(MutantCounter, LoadStoreLostUpdateIsCaughtAndReplaysFromSeed) {
  const auto setup = [](hv::Env& env) {
    auto c = std::make_shared<hvt::MutantCounter<false>>();
    env.thread([c] { c->add(1); });
    env.thread([c] { c->add(1); });
    env.finally([c] { hv::check(c->value() == 2, "lost update"); });
  };
  hv::Options opts;
  opts.mode = hv::Options::Mode::kRandom;
  opts.iterations = 256;
  opts.seed = 5;
  const auto r = hv::explore(opts, setup);
  ASSERT_TRUE(r.failed) << "mutant survived — checker lost its teeth";
  ASSERT_NE(r.failing_seed, 0u);

  // The printed seed must reproduce the failure in one iteration — the
  // debugging loop the random sweeps rely on.
  hv::Options replay = opts;
  replay.replay_seed = r.failing_seed;
  const auto r2 = hv::explore(replay, setup);
  EXPECT_TRUE(r2.failed) << "replay seed did not reproduce";
  EXPECT_EQ(r2.executions, 1u);
}

}  // namespace
