#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "dproc/util/fifo.hpp"
#include "dproc/util/ring_buffer.hpp"
#include "dproc/util/rng.hpp"
#include "dproc/util/stats.hpp"
#include "dproc/util/status.hpp"
#include "dproc/util/time.hpp"

namespace dproc {
namespace {

// --- time -------------------------------------------------------------

TEST(Time, UnitConversions) {
  EXPECT_EQ(seconds(1.0).ns(), 1'000'000'000);
  EXPECT_EQ(milliseconds(1.5).ns(), 1'500'000);
  EXPECT_EQ(microseconds(2.0).ns(), 2'000);
  EXPECT_DOUBLE_EQ(seconds(2.5).sec(), 2.5);
  EXPECT_DOUBLE_EQ(milliseconds(1.0).us(), 1000.0);
}

TEST(Time, Arithmetic) {
  const SimTime t = SimTime::zero() + seconds(1.0);
  EXPECT_EQ((t + milliseconds(500.0)).ns(), 1'500'000'000);
  EXPECT_EQ((t - SimTime::zero()).ns(), seconds(1.0).ns());
  EXPECT_EQ((seconds(3.0) - seconds(1.0)).ns(), seconds(2.0).ns());
  EXPECT_DOUBLE_EQ(seconds(4.0) / seconds(2.0), 2.0);
  EXPECT_EQ((seconds(2.0) * 1.5).ns(), seconds(3.0).ns());
}

TEST(Time, Ordering) {
  EXPECT_LT(SimTime{5}, SimTime{6});
  EXPECT_LE(seconds(1.0), seconds(1.0));
  EXPECT_GT(SimTime::max(), SimTime::zero());
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(to_string(nanoseconds(500)), "500ns");
  EXPECT_EQ(to_string(microseconds(1.5)), "1.500us");
  EXPECT_EQ(to_string(milliseconds(2.25)), "2.250ms");
  EXPECT_EQ(to_string(seconds(1.0)), "1.000s");
}

// --- rng --------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng{7};
  StreamingStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{11};
  StreamingStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{42};
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BernoulliProbability) {
  Rng rng{5};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

// --- stats ------------------------------------------------------------

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, Reset) {
  StreamingStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleSet, ExtremesExactInteriorApproximate) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  // min, max and mean are tracked exactly alongside the histogram.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Interior quantiles interpolate inside one log-linear sub-bucket:
  // within the sub-bucket's relative width of the exact answer.
  EXPECT_NEAR(s.median(), 50.5, 50.5 * 0.10);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 99.01 * 0.10);
  // Quantiles are monotone in q.
  EXPECT_LE(s.quantile(0.25), s.quantile(0.5));
  EXPECT_LE(s.quantile(0.5), s.quantile(0.75));
}

TEST(SampleSet, OrderIndependentAndClampedToRange) {
  // The histogram is order-independent: descending inserts read back the
  // same summary, and every quantile stays inside [min, max].
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0) << "after adding " << i;
    EXPECT_DOUBLE_EQ(s.quantile(0.0), static_cast<double>(i));
  }
  EXPECT_NEAR(s.median(), 50.5, 50.5 * 0.10);

  s.clear();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  s.add(7.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
  EXPECT_GE(s.median(), 5.0);
  EXPECT_LE(s.median(), 7.0);
}

TEST(SampleSet, ZeroAndNegativeLandInTheFloorBucket) {
  SampleSet s;
  s.add(0.0);
  s.add(0.0);
  s.add(-2.5);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), -2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), -2.5) << "floor bucket reports exact min";
}

TEST(SampleSet, MergeAddsBucketCounts) {
  // The property zone roll-ups need: merging per-host sets is equivalent
  // to having recorded every sample into one set.
  SampleSet a, b, all;
  for (int i = 1; i <= 50; ++i) {
    a.add(static_cast<double>(i));
    all.add(static_cast<double>(i));
  }
  for (int i = 51; i <= 100; ++i) {
    b.add(static_cast<double>(i));
    all.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.quantile(0.0), all.quantile(0.0));
  EXPECT_DOUBLE_EQ(a.quantile(1.0), all.quantile(1.0));
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
  // Merging into an empty set copies.
  SampleSet c;
  c.merge(all);
  EXPECT_EQ(c.count(), 100u);
  EXPECT_DOUBLE_EQ(c.max(), 100.0);
}

TEST(SampleSet, AddIsAllocationFreeAfterReserve) {
  SampleSet s;
  s.reserve(1);  // sizes the fixed bucket table
  for (int i = 0; i < 10'000; ++i) s.add(static_cast<double>(i) * 0.37 + 0.01);
  EXPECT_EQ(s.count(), 10'000u);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e{0.5};
  for (int i = 0; i < 32; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma e{0.1};
  EXPECT_FALSE(e.seeded());
  e.add(42.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);
  h.add(100.0);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucket(i), 1u);
  EXPECT_FALSE(h.summary().empty());
}

// --- ring buffer --------------------------------------------------------

TEST(RingBuffer, PushAndIndexOldestFirst) {
  RingBuffer<int> ring{3};
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front(), 1);
  EXPECT_EQ(ring.back(), 2);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> ring{3};
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.front(), 3);
  EXPECT_EQ(ring.back(), 5);
  EXPECT_EQ(ring.at(1), 4);
}

TEST(RingBuffer, AtOutOfRangeThrows) {
  RingBuffer<int> ring{2};
  ring.push(1);
  EXPECT_THROW(ring.at(1), std::out_of_range);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>{0}, std::invalid_argument);
}

TEST(RingBuffer, ForEachVisitsInOrder) {
  RingBuffer<int> ring{4};
  for (int i = 0; i < 6; ++i) ring.push(i);
  std::vector<int> seen;
  ring.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
}

TEST(RingBuffer, Clear) {
  RingBuffer<int> ring{2};
  ring.push(1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, CountsOverwritesUntilCleared) {
  RingBuffer<int> ring{2};
  for (int i = 0; i < 5; ++i) ring.push(i);
  EXPECT_EQ(ring.dropped(), 3u);
  EXPECT_EQ(ring.front(), 3);
  ring.clear();
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 2u);
  ring.push(9);
  EXPECT_EQ(ring.front(), 9);
}

TEST(RingBuffer, DefaultConstructedIsUnsizedUntilAssigned) {
  RingBuffer<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  ring = RingBuffer<int>{3};
  ring.reserve();
  ring.push(7);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.front(), 7);
}

TEST(Fifo, WrapsAndGrowsInOrder) {
  Fifo<int> fifo;
  int pushed = 0;
  int popped = 0;
  // Interleave pushes and pops so the head walks round the ring, then let
  // the queue grow while its items wrap past the end of the storage.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 + round % 5; ++i) fifo.push_back(pushed++);
    for (int i = 0; i < 2 && !fifo.empty(); ++i) {
      EXPECT_EQ(fifo.front(), popped++);
      fifo.pop_front();
    }
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      ASSERT_EQ(fifo[i], popped + static_cast<int>(i));
    }
  }
  EXPECT_EQ(fifo.size(), static_cast<std::size_t>(pushed - popped));
  while (!fifo.empty()) {
    EXPECT_EQ(fifo.front(), popped++);
    fifo.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(Fifo, PopReleasesTheItemAtOnce) {
  Fifo<std::shared_ptr<int>> fifo;
  auto item = std::make_shared<int>(1);
  fifo.push_back(item);
  fifo.push_back(std::make_shared<int>(2));
  EXPECT_EQ(item.use_count(), 2);
  fifo.pop_front();
  EXPECT_EQ(item.use_count(), 1);
  EXPECT_EQ(*fifo.front(), 2);
}

// --- status / result ----------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::not_found("missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.to_string().find("missing thing"), std::string::npos);
}

TEST(Result, ValueRoundTrip) {
  Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, ErrorAccessThrows) {
  Result<int> r{Status::invalid_argument("nope")};
  EXPECT_FALSE(r.is_ok());
  EXPECT_THROW(r.value(), std::logic_error);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ok_or_nullopt(), std::nullopt);
}

TEST(Result, OkStatusWithoutValueIsLogicError) {
  EXPECT_THROW((Result<int>{Status::ok()}), std::logic_error);
}

}  // namespace
}  // namespace dproc
