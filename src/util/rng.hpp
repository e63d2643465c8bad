// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in Braidio takes an explicit Rng (or a seed) so
// that experiments are replayable bit-for-bit. Never use global RNG state.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>

#include "util/contract.hpp"

namespace braidio::util {

/// MT19937-64 (Matsumoto & Nishimura, ACM TOMACS 1998) with exactly the
/// output sequence of std::mt19937_64 seeded with the same value, but
/// without its 2.5 KB state until a stream needs it. Draws 0-155 come
/// straight from the seeding recurrence (no array); draw 156 builds the
/// 312-word state on the heap, and from then on this is the textbook
/// engine. Copies are deep; moves hand over the array.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) : seed_(seed) {}
  Mt19937_64(const Mt19937_64& other);
  Mt19937_64& operator=(const Mt19937_64& other);
  Mt19937_64(Mt19937_64&& other) noexcept;
  Mt19937_64& operator=(Mt19937_64&& other) noexcept;

  result_type operator()() {
    if (p_ < kN) [[likely]] return temper(x_[p_++]);
    return slow_next();
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// One generation of the recurrence over the full state, in place.
  static void twist(result_type* x);

  /// Everything but the steady-state array read: the array-free window,
  /// the state build at draw kM, and each later twist.
  result_type slow_next();

  std::unique_ptr<result_type[]> x_;  // null until draw kM
  std::size_t p_ = kN;                // next index into x_; kN = exhausted
  result_type seed_;
  // Array-free window: `lo_` is x[i] and `hi_` is x[i + kM] of the
  // seeding recurrence, for the next draw i = `drawn_` < kM.
  result_type lo_ = 0;
  result_type hi_ = 0;
  std::size_t drawn_ = 0;
};

/// The distributions the simulators need over the Mt19937_64 engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  ///
  /// The value libstdc++'s std::generate_canonical<double, 53> gives for
  /// a 64-bit engine: one draw scaled by 2^-64, with the few draws that
  /// round up to 1.0 clamped to the largest double below 1.
  double uniform() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  ///
  /// Implemented with bitmask rejection sampling directly on the engine
  /// rather than std::uniform_int_distribution: the standard leaves that
  /// distribution's algorithm implementation-defined (streams differ across
  /// libstdc++/libc++/MSVC, and a fresh distribution object was constructed
  /// per call). This version is portable bit-for-bit and allocation-free;
  /// the deterministic stream is pinned by util_rng_test.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Standard normal (mean 0, stddev 1).
  double gaussian() { return normal_(engine_); }

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    BRAIDIO_REQUIRE(!std::isnan(p), "p", p);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Rayleigh-distributed amplitude with scale sigma:
  /// pdf r/sigma^2 exp(-r^2 / (2 sigma^2)).
  double rayleigh(double sigma);

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Random phase in [0, 2*pi).
  double phase();

  /// Derive an independent child stream (for parallel components).
  Rng fork();

  /// Deterministic sub-stream `index` of master seed `seed` (stateless:
  /// does not consume from any engine). This is the seeding rule the sim
  /// engine uses for parallel sweeps — grid point i always receives
  /// `Rng::stream(seed, i)` regardless of which thread evaluates it, so
  /// parallel results are bit-identical to serial runs. The derivation is
  /// two rounds of the splitmix64 finalizer over seed and index, which
  /// decorrelates even adjacent indices.
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    return Rng(stream_seed(seed, index));
  }

  /// The raw 64-bit seed `stream()` would construct its engine from (for
  /// components that take a seed rather than an Rng).
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index);

 private:
  Mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace braidio::util
