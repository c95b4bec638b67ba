#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace dl2f {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.uniform() == b.uniform()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRateApproximation) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kTrials;
  const double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}


// ---------------------------------------------------------------------------
// Exactness against the standard library. Rng's engine and its fast draws
// must reproduce the std::mt19937_64 + std distribution composition word
// for word and value for value: every seeded simulation, dataset and
// training run in the repo depends on it.

constexpr std::uint64_t kSeeds[] = {0, 1, 5489, ~std::uint64_t{0}};
constexpr double kProbabilities[] = {0.0,  1e-12, 0.004, 0.02, 0.3,
                                     0.75, 1.0 - 0x1p-53, 1.0, 1.5};

/// The draws Rng had when it wrapped std::mt19937_64 directly.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return unit_(engine_); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return unit_(engine_) < p; }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  ReferenceRng fork() { return ReferenceRng(engine_()); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// A URBG that returns one fixed word: drives the std distributions on the
/// edge words a seeded stream practically never produces.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  std::uint64_t word;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RngExact, EngineMatchesStdMt19937_64) {
  constexpr int kWords = 10'000'000;
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 fast(seed);
    std::mt19937_64 ref(seed);
    int mismatches = 0;
    for (int i = 0; i < kWords; ++i) mismatches += fast() != ref() ? 1 : 0;
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(RngExact, WordMapsMatchStdOnEdgeWords) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  // Words around the rounding boundary to 2^64 (from 2^64 - 1024 upward a
  // word rounds to 2^64 and generate_canonical clamps), exact halfway
  // cases of the word -> double rounding (ties go to even), words whose
  // low 32 bits are all set, and small ones.
  const std::vector<std::uint64_t> words = {
      0,           1,           2,           k53 - 1,     k53,         k53 + 1,
      k53 + 3,     k63,         k63 + 1024,  k63 + 3072,  k63 - 512,   k63 + 0xffffffffU,
      kTop - 2048, kTop - 1025, kTop - 1024, kTop - 1023, kTop - 1,    kTop};
  for (const std::uint64_t w : words) {
    FixedWord g{w};
    const double want = std::uniform_real_distribution<double>(0.0, 1.0)(g);
    EXPECT_EQ(bits(Rng::unit_from_word(w)), bits(want)) << "word " << w;
    EXPECT_LT(Rng::unit_from_word(w), 1.0);
    for (const double p : kProbabilities) {
      EXPECT_EQ(Rng::bernoulli_from_word(w, p), want < p) << "word " << w << " p " << p;
    }
  }
}

TEST(RngExact, DrawsMatchStdReferenceDrawForDraw) {
  constexpr int kRounds = 20'000;
  for (const std::uint64_t seed : kSeeds) {
    Rng fast(seed);
    ReferenceRng ref(seed);
    for (int i = 0; i < kRounds; ++i) {
      for (const double p : kProbabilities) {
        ASSERT_EQ(fast.bernoulli(p), ref.bernoulli(p)) << "seed " << seed << " round " << i;
      }
      ASSERT_EQ(bits(fast.uniform()), bits(ref.uniform()));
      ASSERT_EQ(bits(fast.uniform(-3.0, 5.0)), bits(ref.uniform(-3.0, 5.0)));
      ASSERT_EQ(fast.uniform_int(0, 62), ref.uniform_int(0, 62));
      ASSERT_EQ(fast.uniform_int(-5, 1'000'003), ref.uniform_int(-5, 1'000'003));
      ASSERT_EQ(fast.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()),
                ref.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()));
      ASSERT_EQ(bits(fast.normal(2.0, 3.0)), bits(ref.normal(2.0, 3.0)));
      if (i % 1000 == 0) {
        Rng child = fast.fork();
        ReferenceRng ref_child = ref.fork();
        for (int k = 0; k < 100; ++k) ASSERT_EQ(bits(child.uniform()), bits(ref_child.uniform()));
      }
    }
  }
}

TEST(RngExact, ShuffleMatchesStdEngine) {
  std::vector<int> a(1000), b(1000);
  for (int i = 0; i < 1000; ++i) a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)] = i;
  Rng fast(42);
  std::mt19937_64 ref(42);
  std::shuffle(a.begin(), a.end(), fast.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
}

TEST(RngExact, BernoulliOneIsCertainAndConsumesOneWord) {
  Rng a(77), b(77);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(a.bernoulli(1.0));
    (void)b.engine()();
  }
  for (int i = 0; i < 100; ++i) ASSERT_EQ(bits(a.uniform()), bits(b.uniform()));
}

}  // namespace
}  // namespace dl2f
