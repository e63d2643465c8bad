#include "phy/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <complex>
#include <stdexcept>
#include <vector>

#include "circuits/comparator.hpp"
#include "circuits/envelope_detector.hpp"
#include "phy/modulation.hpp"
#include "util/rng.hpp"

namespace braidio::phy {

namespace {

/// High-pass corner used by the circuit chain for a bitrate: above the
/// self-interference band (~1 kHz) but well below the data band.
double highpass_corner_hz(double bps) { return std::min(2e3, bps / 5.0); }

/// The DC-balanced preamble must cover several time constants of the
/// high-pass filter so the (large) background level settles out before the
/// payload — exactly why real backscatter readers emit carrier and sync
/// patterns before data.
std::size_t preamble_bits(const WaveformSimConfig& config) {
  const double bps = bitrate_bps(config.rate);
  const double tau = 1.0 / (2.0 * std::numbers::pi * highpass_corner_hz(bps));
  const auto settle = static_cast<std::size_t>(std::ceil(6.0 * tau * bps));
  return std::max<std::size_t>(32, settle);
}

struct Symbols {
  std::vector<std::uint8_t> data_bits;   // what we score against
  std::vector<std::uint8_t> line_bits;   // after optional Manchester
  unsigned samples_per_line_bit = 0;
  std::size_t preamble_bits = 0;
};

Symbols make_symbols(const WaveformSimConfig& config, bool manchester) {
  Symbols s;
  s.data_bits = random_bits(config.bits, config.seed);
  s.preamble_bits = preamble_bits(config);
  std::vector<std::uint8_t> with_preamble;
  with_preamble.reserve(config.bits + s.preamble_bits);
  for (std::size_t i = 0; i < s.preamble_bits; ++i) {
    with_preamble.push_back(i % 2 == 0 ? 1 : 0);
  }
  with_preamble.insert(with_preamble.end(), s.data_bits.begin(),
                       s.data_bits.end());
  if (manchester) {
    if (config.samples_per_bit < 4 || config.samples_per_bit % 2 != 0) {
      throw std::invalid_argument(
          "waveform: Manchester needs even samples_per_bit >= 4");
    }
    s.line_bits = manchester_encode(with_preamble);
    s.samples_per_line_bit = config.samples_per_bit / 2;
  } else {
    s.line_bits = std::move(with_preamble);
    s.samples_per_line_bit = config.samples_per_bit;
  }
  return s;
}

/// Complex-envelope receive samples for the line bits.
std::vector<double> received_envelope(const Symbols& sym,
                                      const WaveformSimConfig& config,
                                      double snr, util::Rng& rng) {
  const double a = std::sqrt(2.0 * snr);  // sigma = 1 per dimension
  std::vector<double> env;
  env.reserve(sym.line_bits.size() * sym.samples_per_line_bit);
  const bool backscatter = config.mode == hal::LinkMode::Backscatter;
  const double b = backscatter ? config.background_to_signal * a : 0.0;
  const double theta = config.cancellation_angle_rad;
  for (auto bit : sym.line_bits) {
    for (unsigned k = 0; k < sym.samples_per_line_bit; ++k) {
      const std::complex<double> noise{rng.gaussian(), rng.gaussian()};
      std::complex<double> r;
      if (backscatter) {
        // Antipodal tag states +/- around the strong background carrier.
        const double sgn = bit ? 1.0 : -1.0;
        r = std::complex<double>{b, 0.0} +
            sgn * std::polar(a, theta) + noise;
      } else {
        // Passive-RX: OOK of the remote carrier, no local background.
        r = std::complex<double>{bit ? a : 0.0, 0.0} + noise;
      }
      env.push_back(std::abs(r));
    }
  }
  return env;
}

std::vector<std::uint8_t> score_bits(const std::vector<std::uint8_t>& line,
                                     bool manchester) {
  if (!manchester) return line;
  // Lenient Manchester decode: with the IEEE convention (1 -> {0,1},
  // 0 -> {1,0}) the second half-bit equals the data bit, so a slice of the
  // second half-bit recovers data even through corrupted pairs.
  std::vector<std::uint8_t> out;
  out.reserve(line.size() / 2);
  for (std::size_t i = 1; i < line.size(); i += 2) out.push_back(line[i]);
  return out;
}

double analytic_ber_for(const WaveformSimConfig& config, double snr) {
  if (config.mode == hal::LinkMode::Backscatter) {
    const double c = std::cos(config.cancellation_angle_rad);
    return bit_error_rate(BerModel::CoherentBpsk, snr * c * c);
  }
  return bit_error_rate(LinkBudget::ber_model(config.mode), snr);
}

}  // namespace

WaveformSimResult simulate_waveform(const LinkBudget& budget,
                                    const WaveformSimConfig& config) {
  if (config.bits == 0 || config.samples_per_bit == 0) {
    throw std::invalid_argument("simulate_waveform: empty workload");
  }
  const double snr = budget.snr(config.mode, config.rate, config.distance_m);
  util::Rng rng(config.seed ^ 0xB5AD4ECEDA1CE2A9ull);

  WaveformSimResult result;
  result.analytic_ber = analytic_ber_for(config, snr);

  if (config.mode == hal::LinkMode::Active) {
    // Coherent FSK decision statistic: y = +/-sqrt(snr) + N(0,1).
    const auto bits = random_bits(config.bits, config.seed);
    std::size_t errors = 0;
    const double d = std::sqrt(snr);
    for (auto bit : bits) {
      const double y = (bit ? d : -d) + rng.gaussian();
      if ((y > 0.0) != (bit != 0)) ++errors;
    }
    result.bits_simulated = bits.size();
    result.bit_errors = errors;
    result.measured_ber =
        static_cast<double>(errors) / static_cast<double>(bits.size());
    return result;
  }

  const bool manchester = config.use_circuit_chain;
  const Symbols sym = make_symbols(config, manchester);
  const auto env = received_envelope(sym, config, snr, rng);
  const double a = std::sqrt(2.0 * snr);

  std::vector<std::uint8_t> line_decisions;
  if (config.use_circuit_chain) {
    // Envelope detector (normalized: unity boost, loss absorbed in the
    // calibrated SNR) followed by a hysteresis comparator around zero.
    const double bps = bitrate_bps(config.rate);
    circuits::EnvelopeDetectorConfig det;
    det.boost = 1.0;
    det.diode_drop_volts = 0.0;
    det.sample_rate_hz =
        bps * static_cast<double>(config.samples_per_bit);
    det.lowpass_corner_hz = 4.0 * bps;
    det.highpass_corner_hz = highpass_corner_hz(bps);
    circuits::EnvelopeDetector detector(det);

    circuits::ComparatorConfig cmp;
    cmp.threshold_volts = 0.0;
    cmp.hysteresis_volts = 0.05 * a;
    cmp.min_overdrive_volts = 0.0;
    circuits::Comparator comparator(cmp);

    const auto baseband = detector.process(env);
    line_decisions.reserve(sym.line_bits.size());
    for (std::size_t i = 0; i + sym.samples_per_line_bit <= baseband.size();
         i += sym.samples_per_line_bit) {
      // Feed the comparator every sample; decide at the end of the line bit.
      bool out = false;
      for (unsigned k = 0; k < sym.samples_per_line_bit; ++k) {
        out = comparator.step(baseband[i + k]);
      }
      line_decisions.push_back(out ? 1 : 0);
    }
  } else {
    // Ideal path: midpoint threshold between the two envelope levels.
    const double threshold =
        config.mode == hal::LinkMode::Backscatter
            ? config.background_to_signal * a  // background magnitude
            : a / 2.0;
    line_decisions = ook_demodulate_midpoint(
        env, sym.samples_per_line_bit, threshold);
  }

  const auto decided = score_bits(line_decisions, manchester);
  // Drop the preamble, score the payload.
  if (decided.size() < sym.preamble_bits + config.bits) {
    throw std::logic_error("simulate_waveform: decision stream too short");
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < config.bits; ++i) {
    const bool rx = decided[sym.preamble_bits + i] != 0;
    const bool tx = sym.data_bits[i] != 0;
    if (rx != tx) ++errors;
  }
  result.bits_simulated = config.bits;
  result.bit_errors = errors;
  result.measured_ber =
      static_cast<double>(errors) / static_cast<double>(config.bits);
  return result;
}

}  // namespace braidio::phy
