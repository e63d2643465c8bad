#include "net/medium.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::net {

namespace {
/// Distances below this are clamped before the log — the log-distance
/// model diverges at 0 and colocated nodes are a topology artifact.
constexpr double kMinDistanceM = 0.01;
constexpr double kMinD2 = kMinDistanceM * kMinDistanceM;

/// Relative margin a bound must clear the CCA threshold by before it
/// decides the verdict. The bounds and the exact sum differ from the
/// real values only by table and summation rounding, a few ulps times
/// the number of terms (~1e-14 for thousands of transmitters).
constexpr double kVerdictGuard = 1e-9;

/// Target ratio - 1 between a bucket's upper and lower gain bound: the
/// narrower the bracket, the rarer the exact fallback.
constexpr double kBucketSpread = 0.005;

/// Ceiling on the gain table, so it stays cache resident.
constexpr std::size_t kMaxGainTableBytes = 64 * 1024;
}  // namespace

SharedMedium::SharedMedium(MediumConfig config,
                           const std::vector<Vec2>& positions)
    : config_(config), positions_(positions) {
  if (!std::isfinite(config_.noise_floor_dbm) ||
      !std::isfinite(config_.tx_power_dbm) ||
      !std::isfinite(config_.ref_loss_db)) {
    throw std::invalid_argument("net::SharedMedium: non-finite config");
  }
  if (!(config_.path_loss_exponent > 0.0) ||
      !std::isfinite(config_.path_loss_exponent)) {
    throw std::invalid_argument(
        "net::SharedMedium: path_loss_exponent must be finite and > 0");
  }
  noise_floor_w_ = util::dbm_to_watts(config_.noise_floor_dbm);
  ref_gain_ = std::pow(10.0, -config_.ref_loss_db / 10.0);
  build_gain_table();
}

void SharedMedium::build_gain_table() {
  // The table spans the octaves of d^2 from the 1 cm floor to the squared
  // diagonal of the positions' bounding box (a node moved past it later
  // pays the exact pow). Each octave splits into 2^bits buckets, the fewest
  // whose bound ratio (1 + 2^-bits)^(n/2) stays near 1 + kBucketSpread,
  // shrunk until the table fits kMaxGainTableBytes.
  double x_lo = 0.0, x_hi = 0.0, y_lo = 0.0, y_hi = 0.0;
  if (!positions_.empty()) {
    x_lo = x_hi = positions_.front().x_m;
    y_lo = y_hi = positions_.front().y_m;
  }
  for (const Vec2& p : positions_) {
    x_lo = std::min(x_lo, p.x_m);
    x_hi = std::max(x_hi, p.x_m);
    y_lo = std::min(y_lo, p.y_m);
    y_hi = std::max(y_hi, p.y_m);
  }
  const double w = x_hi - x_lo;
  const double h = y_hi - y_lo;
  double span2 = std::max(w * w + h * h, kMinD2);
  if (!(span2 <= DBL_MAX)) span2 = DBL_MAX;
  int e_lo = 0;
  int e_hi = 0;
  std::frexp(kMinD2, &e_lo);
  --e_lo;                     // 2^e_lo <= kMinD2
  std::frexp(span2, &e_hi);  // span2 < 2^e_hi
  // Stop before the gains leave the normal range (2^-900 at the top), so
  // every entry is a normal number with the usual relative rounding.
  const double half_n = 0.5 * config_.path_loss_exponent;
  e_hi = static_cast<int>(
      std::min<double>(e_hi, e_lo + std::floor(900.0 / half_n)));
  const int octaves = e_hi - e_lo;

  int bits = 0;
  while (bits < 16 && half_n * std::ldexp(1.0, -bits) > kBucketSpread) {
    ++bits;
  }
  constexpr std::size_t kMaxEntries = kMaxGainTableBytes / sizeof(double);
  while (bits > 0 &&
         (static_cast<std::size_t>(octaves) << bits) + 1 > kMaxEntries) {
    --bits;
  }

  // Edge k sits at 2^(e_lo + k / 2^bits) * (1 + (k mod 2^bits) / 2^bits);
  // its gain is the octave's power of two times the mantissa's, so the
  // build costs one pow per octave and per mantissa step.
  const std::size_t per_octave = std::size_t{1} << bits;
  const double neg_half_n = -half_n;
  std::vector<double> mantissa_gain(per_octave);
  for (std::size_t m = 0; m < per_octave; ++m) {
    mantissa_gain[m] = std::pow(
        1.0 + std::ldexp(static_cast<double>(m), -bits), neg_half_n);
  }
  gain_top_ = static_cast<std::uint64_t>(octaves) << bits;
  gain_edge_.resize(gain_top_ + 1);
  for (int o = 0; o <= octaves; ++o) {
    const double octave_gain =
        std::pow(2.0, neg_half_n * static_cast<double>(e_lo + o));
    const std::size_t first = static_cast<std::size_t>(o) << bits;
    const std::size_t count = o < octaves ? per_octave : 1;
    for (std::size_t m = 0; m < count; ++m) {
      gain_edge_[first + m] = octave_gain * mantissa_gain[m];
    }
  }
  gain_shift_ = 52 - bits;
  gain_base_ = std::bit_cast<std::uint64_t>(std::ldexp(1.0, e_lo)) >>
               gain_shift_;
}

void SharedMedium::begin(std::uint32_t tx, std::uint32_t rx,
                         double until_s, double power_dbm) {
  BRAIDIO_REQUIRE(tx < positions_.size() && rx < positions_.size(), "tx",
                  tx, "rx", rx, "nodes", positions_.size());
  BRAIDIO_REQUIRE(std::isfinite(power_dbm), "power_dbm", power_dbm);
  active_.push_back({tx, rx, until_s, power_dbm,
                     util::dbm_to_watts(power_dbm) * ref_gain_});
}

void SharedMedium::end(std::uint32_t tx) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [tx](const ActiveTx& a) { return a.tx == tx; });
  BRAIDIO_REQUIRE(it != active_.end(), "tx", tx);
  active_.erase(it);  // order-preserving: later sums stay deterministic
}

double SharedMedium::path_loss_db(double distance_m) const {
  const double d = std::max(distance_m, kMinDistanceM);
  return config_.ref_loss_db +
         10.0 * config_.path_loss_exponent * std::log10(d);
}

double SharedMedium::interference_watts(std::uint32_t node,
                                        std::uint32_t exclude_tx) const {
  BRAIDIO_REQUIRE(node < positions_.size(), "node", node, "nodes",
                  positions_.size());
  // Hot path (sampled per CCA and twice per transmission in a dense
  // deployment): the log-distance loss is applied in linear form,
  //   rx_w = tx_w * 10^(-ref/10) * d^(-n) = tx_w * ref_gain_ * (d^2)^(-n/2),
  // so each interferer costs one pow on the squared distance — no sqrt,
  // no log10, no second pow through dBm and back.
  const Vec2& at = positions_[node];
  const double half_exponent = -0.5 * config_.path_loss_exponent;
  double total_w = 0.0;
  for (const ActiveTx& a : active_) {
    if (a.tx == exclude_tx || a.tx == node) continue;
    const Vec2& from = positions_[a.tx];
    const double dx = from.x_m - at.x_m;
    const double dy = from.y_m - at.y_m;
    const double d2 = std::max(dx * dx + dy * dy, kMinD2);
    total_w += a.gain_w * std::pow(d2, half_exponent);
  }
  return total_w;
}

double SharedMedium::ambient_dbm(std::uint32_t node,
                                 std::uint32_t exclude_tx) const {
  const double total_w =
      noise_floor_w_ + interference_watts(node, exclude_tx);
  return util::watts_to_dbm(total_w);
}

bool SharedMedium::ambient_below(std::uint32_t node,
                                 std::uint32_t exclude_tx,
                                 double threshold_dbm) {
  BRAIDIO_REQUIRE(node < positions_.size(), "node", node, "nodes",
                  positions_.size());
  BRAIDIO_REQUIRE(!std::isnan(threshold_dbm), "threshold_dbm",
                  threshold_dbm);
  if (threshold_dbm != threshold_dbm_memo_) {
    threshold_dbm_memo_ = threshold_dbm;
    threshold_w_memo_ = util::dbm_to_watts(threshold_dbm);
  }
  // Exactness: every bound term is within table rounding of the exact
  // term on the right side of it, and a floating-point sum of
  // non-negative terms is monotone in each term, so noise + lo_w and
  // noise + hi_w bracket the exact total to within a relative ~1e-14.
  // A verdict is taken only when the bracket clears the threshold by
  // kVerdictGuard; subnormal or infinite thresholds go straight to the
  // exact comparison.
  const double t_w = threshold_w_memo_;
  if (std::isnormal(t_w) && std::isnormal(noise_floor_w_)) {
    const double busy_w = t_w * (1.0 + kVerdictGuard);
    const double clear_w = t_w * (1.0 - kVerdictGuard);
    const double half_exponent = -0.5 * config_.path_loss_exponent;
    const Vec2& at = positions_[node];
    double lo_w = 0.0;
    double hi_w = 0.0;
    for (const ActiveTx& a : active_) {
      if (a.tx == exclude_tx || a.tx == node) continue;
      const Vec2& from = positions_[a.tx];
      const double dx = from.x_m - at.x_m;
      const double dy = from.y_m - at.y_m;
      const double d2 = std::max(dx * dx + dy * dy, kMinD2);
      const std::uint64_t k =
          (std::bit_cast<std::uint64_t>(d2) >> gain_shift_) - gain_base_;
      if (k < gain_top_) {
        lo_w += a.gain_w * gain_edge_[k + 1];
        hi_w += a.gain_w * gain_edge_[k];
      } else {  // moved past the placement the table was sized for
        const double term_w = a.gain_w * std::pow(d2, half_exponent);
        lo_w += term_w;
        hi_w += term_w;
      }
      if (noise_floor_w_ + lo_w >= busy_w) return false;
    }
    if (noise_floor_w_ + hi_w <= clear_w) return true;
  }
  ++cca_exact_fallbacks_;
  return ambient_dbm(node, exclude_tx) < threshold_dbm;
}

double SharedMedium::interference_penalty_db(
    std::uint32_t rx, std::uint32_t exclude_tx) const {
  const double i_w = interference_watts(rx, exclude_tx);
  if (i_w <= 0.0) return 0.0;
  return util::linear_to_db(1.0 + i_w / noise_floor_w_);
}

}  // namespace braidio::net
