// Model-checked serve::BasicOfferCounts — the daemon's per-node ingestion
// accounting, same template production ships, instantiated with
// verify::ModelBackend. One writer records offers with each of the three
// outcomes; readers check every row they get is exact: the identity
// offered == accepted + shed + dropped_readings holds, AND the row equals
// the writer's counts right after its offered-th offer (a balanced row
// mixing two instants would pass the identity alone — see the relaxed-
// publish mutant in mutant_test.cpp, which only the second check catches).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "highrpm/serve/snapshot.hpp"
#include "highrpm/verify/verify.hpp"

namespace hv = highrpm::verify;

namespace {

using ModelCounts = highrpm::serve::BasicOfferCounts<hv::ModelBackend>;
using Value = ModelCounts::Value;

enum class Outcome { kAccepted, kShed, kDroppedReading };

/// The writer's fixed schedule: every outcome appears, and the first three
/// offers already cover all three return paths of Daemon::offer.
constexpr std::array<Outcome, 5> kSchedule = {
    Outcome::kAccepted, Outcome::kShed, Outcome::kDroppedReading,
    Outcome::kAccepted, Outcome::kShed};

/// The counts right after the first `offers` offers of kSchedule completed.
Value prefix_counts(std::uint64_t offers) {
  Value v;
  v.offered = offers;
  for (std::uint64_t i = 0; i < offers; ++i) {
    switch (kSchedule[i]) {
      case Outcome::kAccepted: ++v.accepted; break;
      case Outcome::kShed: ++v.shed; break;
      case Outcome::kDroppedReading: ++v.dropped_readings; break;
    }
  }
  return v;
}

void record(ModelCounts& c, Outcome o) {
  switch (o) {
    case Outcome::kAccepted: c.count_accepted(); break;
    case Outcome::kShed: c.count_shed(); break;
    case Outcome::kDroppedReading: c.count_dropped_reading(); break;
  }
}

void check_exact(const Value& v, std::size_t offers) {
  hv::check(v.offered == v.accepted + v.shed + v.dropped_readings,
            "accounting identity broken");
  hv::check(v.offered <= offers, "offered overshot the writer");
  const Value want = prefix_counts(v.offered);
  hv::check(v.accepted == want.accepted && v.shed == want.shed &&
                v.dropped_readings == want.dropped_readings,
            "torn row: balanced, but not one instant");
}

void counts_setup(hv::Env& env, std::size_t offers, int readers,
                  int reads_per_reader) {
  auto counts = std::make_shared<ModelCounts>();
  env.thread([counts, offers] {
    for (std::size_t i = 0; i < offers; ++i) record(*counts, kSchedule[i]);
  });
  for (int r = 0; r < readers; ++r) {
    env.thread([counts, offers, reads_per_reader] {
      std::uint64_t prev = 0;
      for (int k = 0; k < reads_per_reader; ++k) {
        const Value v = counts->read();
        check_exact(v, offers);
        hv::check(v.offered >= prev, "offered went backwards");
        prev = v.offered;
      }
    });
  }
  env.finally([counts, offers] {
    const Value v = counts->read();
    check_exact(v, offers);
    hv::check(v.offered == offers, "a completed offer was not counted");
  });
}

TEST(OfferCountsVerify, ExhaustiveThreeOutcomesOneReader) {
  // One offer per outcome, one reader reading twice: covers a read landing
  // between every pair of bumps, on each of the three return paths.
  hv::Options opts;
  opts.preemption_bound = 3;
  opts.stale_window = 2;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    counts_setup(env, 3, 1, 2);
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_TRUE(r.complete) << "3-offer/1-reader shape must be exhausted";
  EXPECT_GT(r.executions, 1u);
}

TEST(OfferCountsVerify, RandomSweepFiveOffersTwoReaders) {
  hv::Options opts;
  opts.mode = hv::Options::Mode::kRandom;
  opts.iterations = 400;
  opts.seed = 16;
  const auto r = hv::explore(opts, [](hv::Env& env) {
    counts_setup(env, kSchedule.size(), 2, 2);
  });
  EXPECT_FALSE(r.failed) << r.report();
  EXPECT_EQ(r.executions, 400u);
}

TEST(OfferCountsVerify, ProductionBackendStillWorksSingleThreaded) {
  highrpm::serve::OfferCounts counts;
  counts.count_accepted();
  counts.count_accepted();
  counts.count_shed();
  counts.count_dropped_reading();
  const auto v = counts.read();
  EXPECT_EQ(v.offered, 4u);
  EXPECT_EQ(v.accepted, 2u);
  EXPECT_EQ(v.shed, 1u);
  EXPECT_EQ(v.dropped_readings, 1u);
}

}  // namespace
