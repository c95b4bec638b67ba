// Deterministic random number generation.
//
// Every stochastic component in the repo (traffic patterns, attacker
// placement, weight init, dataset shuffling) draws from an explicitly
// seeded Rng so that simulations, training runs and benchmark tables are
// reproducible bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace dl2f {

/// splitmix64 finalizer — derives decorrelated sub-seeds from one seed
/// (scenario legs, campaign grid coordinates). Determinism contracts
/// (byte-identical campaigns) depend on every caller sharing this exact
/// bit-mixing, so it lives here rather than per-translation-unit.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string — turns grid-axis names (scenario family, workload)
/// into seed material. Shared for the same reason as mix64: the campaign
/// runner and the adversarial sequence-dataset generator must derive the
/// SAME per-cell seed from the same (family, workload) coordinates.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// MT19937-64 with the standard parameters, seeding and tempering: it
/// emits exactly the word sequence of std::mt19937_64 for the same seed
/// (tests/rng_test.cpp checks 10^7 words per seed). It exists because
/// libstdc++ refills its state with a loop GCC does not vectorize; the
/// refill below is three plain loops over the state array (no wrap-around
/// index arithmetic, a branch-free twist), which GCC vectorizes at -O3.
/// Satisfies UniformRandomBitGenerator, so std::shuffle and the std
/// distributions see the same words as with std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ >= kN) refill();
    std::uint64_t y = state_[index_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;

  static constexpr std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                                       std::uint64_t far) noexcept {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void refill() noexcept {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
    for (; k < kN - 1; ++k) state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  std::array<std::uint64_t, kN> state_{};
  std::size_t index_ = kN;
};

/// Seeded random stream with convenience draws.
///
/// BIT-EXACTNESS CONTRACT. Every draw consumes the same engine words and
/// returns the same value as the std::mt19937_64 + std distribution
/// composition it replaced (tests/rng_test.cpp compares draw for draw), so
/// every seeded simulation, dataset and training run repeats exactly:
///  * uniform() is libstdc++'s generate_canonical<double, 53> on one word
///    w: double(w) * 2^-64, which is exact scaling of the rounded word, and
///    the words that round to 2^64 clamp to nextafter(1, 0).
///  * bernoulli(p) decides double(w) < p * 2^64 on one word, without the
///    division. The products are exact scalings, so this equals
///    uniform() < p except for the clamped words, where uniform() < p holds
///    iff p >= 1 (no double lies in (1 - 2^-53, 1)) — the second term.
///  * uniform_int, normal and the engine() users (std::shuffle) go through
///    the std distributions unchanged.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return unit_from_word(engine_()); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) { return bernoulli_from_word(engine_(), p); }

  /// Normal draw with the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derive an independent child stream (e.g. one per node) from this one.
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Access the underlying engine for std::shuffle and distributions.
  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

  /// The word -> value maps behind uniform() and bernoulli(), public so
  /// the edge words (those that round to 2^64) can be tested directly.
  [[nodiscard]] static constexpr double unit_from_word(std::uint64_t w) noexcept {
    return std::min(word_to_double(w) * 0x1p-64, 0x1.fffffffffffffp-1);
  }
  [[nodiscard]] static constexpr bool bernoulli_from_word(std::uint64_t w, double p) noexcept {
    return word_to_double(w) < p * 0x1p64 || p >= 1.0;
  }

 private:
  /// static_cast<double>(w), rounded the same way, without a branch. GCC
  /// converts an unsigned 64-bit value with a branch on its top bit, which
  /// a random word sets half the time: the mispredictions cost more than
  /// the rest of a draw. Both 32-bit halves convert exactly, so the one
  /// addition rounds the exact sum w to nearest-even, as the conversion does.
  [[nodiscard]] static constexpr double word_to_double(std::uint64_t w) noexcept {
    return static_cast<double>(static_cast<std::int64_t>(w >> 32)) * 0x1p32 +
           static_cast<double>(static_cast<std::int64_t>(w & 0xffffffffU));
  }

  Mt19937_64 engine_;
};

}  // namespace dl2f
