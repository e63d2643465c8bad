// Propagation/demodulation interface at the HAL boundary.
//
// The MAC's packet channel and the planners need exactly five questions
// answered about a link: what SNR does (mode, bitrate) see at distance d,
// what BER does this driver's demodulator produce at a given SNR, what
// BER threshold does the driver hold links to, does the operating point
// clear it, and how far does it reach. Drivers answer with their own
// physics — the calibrated Braidio link budget, a BLE Friis path, an AS3993
// radar-equation round trip — while MAC code stays ignorant of which driver
// it is talking to.
//
// Concurrency contract: implementations must be const-thread-safe (all
// methods const over immutable state) so one model can be shared by
// concurrent sweep workers, like phy::LinkBudget.
#pragma once

#include <optional>

#include "hal/link_mode.hpp"

namespace braidio::hal {

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Per-bit SNR [dB] at separation `distance_m`.
  virtual double snr_db(LinkMode mode, Bitrate rate,
                        double distance_m) const = 0;

  /// Bit error rate the mode's demodulator produces at `snr_db` [dB].
  /// Fading/impairment losses are applied by the caller to the SNR, not
  /// here — the demodulator statistics do not change with the channel.
  virtual double ber_from_snr_db(LinkMode mode, double snr_db) const = 0;

  /// True when (mode, bitrate) meets the driver's BER threshold at d.
  virtual bool available(LinkMode mode, Bitrate rate,
                         double distance_m) const = 0;

  /// Highest bitrate meeting the BER threshold at d, if any.
  virtual std::optional<Bitrate> best_bitrate(LinkMode mode,
                                              double distance_m) const = 0;

  /// Operating range [m]: distance where BER hits the driver's threshold.
  virtual double range_m(LinkMode mode, Bitrate rate) const = 0;

  /// The driver's BER threshold: the largest BER `available` accepts.
  virtual double ber_threshold() const = 0;

  /// Analytic BER at distance d (composition of the two primitives).
  double ber(LinkMode mode, Bitrate rate, double distance_m) const {
    return ber_from_snr_db(mode, snr_db(mode, rate, distance_m));
  }
};

}  // namespace braidio::hal
