#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace braidio::util {

namespace {

using Word = Mt19937_64::result_type;

constexpr Word kUpperMask = ~Word{0} << 31;
constexpr Word kLowerMask = ~kUpperMask;

/// x[k] of the seeding recurrence, from x[k - 1].
constexpr Word seed_step(Word prev, std::size_t k) {
  return 6364136223846793005ull * (prev ^ (prev >> 62)) + k;
}

/// The twist term of x[k], x[k + 1]: everything but the x[k + m] xor.
constexpr Word twist_term(Word xk, Word xk1) {
  const Word y = (xk & kUpperMask) | (xk1 & kLowerMask);
  return (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ull : 0);
}

}  // namespace

void Mt19937_64::twist(result_type* x) {
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = x[k + kM] ^ twist_term(x[k], x[k + 1]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = x[k + kM - kN] ^ twist_term(x[k], x[k + 1]);
  }
  x[kN - 1] = x[kM - 1] ^ twist_term(x[kN - 1], x[0]);
}

Mt19937_64::Mt19937_64(const Mt19937_64& other)
    : p_(other.p_),
      seed_(other.seed_),
      lo_(other.lo_),
      hi_(other.hi_),
      drawn_(other.drawn_) {
  if (other.x_) {
    x_ = std::make_unique_for_overwrite<Word[]>(kN);
    std::copy(other.x_.get(), other.x_.get() + kN, x_.get());
  }
}

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) {
  if (this != &other) *this = Mt19937_64(other);
  return *this;
}

// The source is left with p_ = kN, so a moved-from engine never reads
// the array it gave away.
Mt19937_64::Mt19937_64(Mt19937_64&& other) noexcept
    : x_(std::move(other.x_)),
      p_(std::exchange(other.p_, kN)),
      seed_(other.seed_),
      lo_(other.lo_),
      hi_(other.hi_),
      drawn_(other.drawn_) {}

Mt19937_64& Mt19937_64::operator=(Mt19937_64&& other) noexcept {
  x_ = std::move(other.x_);
  p_ = std::exchange(other.p_, kN);
  seed_ = other.seed_;
  lo_ = other.lo_;
  hi_ = other.hi_;
  drawn_ = other.drawn_;
  return *this;
}

Mt19937_64::result_type Mt19937_64::slow_next() {
  if (x_) {
    twist(x_.get());
    p_ = 0;
    return temper(x_[p_++]);
  }
  if (drawn_ < kM) {
    // Output i of the first twist reads only the seeded x[i], x[i + 1]
    // and x[i + kM], none of which the twist has overwritten yet.
    if (drawn_ == 0) {
      lo_ = hi_ = seed_;
      for (std::size_t k = 1; k <= kM; ++k) hi_ = seed_step(hi_, k);
    }
    const Word next = seed_step(lo_, drawn_ + 1);
    const Word out = hi_ ^ twist_term(lo_, next);
    lo_ = next;
    hi_ = seed_step(hi_, drawn_ + kM + 1);
    ++drawn_;
    return temper(out);
  }
  // Draw kM: the rest of the first twist reads words it has already
  // rewritten, so build the whole state as the standard engine would.
  x_ = std::make_unique_for_overwrite<Word[]>(kN);
  x_[0] = seed_;
  for (std::size_t k = 1; k < kN; ++k) x_[k] = seed_step(x_[k - 1], k);
  twist(x_.get());
  p_ = kM;
  return temper(x_[p_++]);
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
  const std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) return engine_();
  // Bitmask rejection: mask draws down to the smallest all-ones cover of
  // `span` and retry the few that land above it. Unbiased, and — unlike
  // std::uniform_int_distribution — fully specified, so the stream is
  // identical on every standard library.
  std::uint64_t mask = span;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  std::uint64_t draw = engine_() & mask;
  while (draw > span) draw = engine_() & mask;
  return lo + draw;
}

double Rng::rayleigh(double sigma) {
  if (!(sigma > 0.0)) throw std::domain_error("rayleigh: sigma must be > 0");
  // Inverse CDF: r = sigma * sqrt(-2 ln U), U in (0,1].
  double u = 1.0 - uniform();  // (0, 1]
  return sigma * std::sqrt(-2.0 * std::log(u));
}

double Rng::exponential(double mean) {
  if (!(mean > 0.0)) throw std::domain_error("exponential: mean must be > 0");
  double u = 1.0 - uniform();
  return -mean * std::log(u);
}

double Rng::phase() { return uniform(0.0, 2.0 * std::numbers::pi); }

std::uint64_t Rng::stream_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer (Steele, Lea & Flood 2014): a bijective mixer
  // whose output is statistically independent across consecutive inputs —
  // the standard way to key independent sub-streams off (seed, index).
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const std::uint64_t golden = 0x9E3779B97F4A7C15ull;
  return mix(mix(seed + golden) + golden * (index + 1));
}

Rng Rng::fork() {
  // Draw a fresh 64-bit seed; distinct enough for simulation purposes.
  const std::uint64_t seed =
      engine_() ^ 0xD1B54A32D192ED03ull;
  return Rng(seed);
}

}  // namespace braidio::util
