// Shared-medium model: who is on the air, and what that costs everyone
// else.
//
// The per-link ChannelModel answers "what SNR does this link see in
// isolation"; the medium answers the two network-level questions layered
// on top of it:
//   * CCA — the aggregate ambient power a listening node measures, fed
//     to hal::IRadio::cca_clear before a CSMA-CA attempt;
//   * interference — the SNR penalty a receiver eats from concurrent
//     transmissions, 10*log10(1 + I/N) over a log-distance path-loss
//     model, subtracted from the link SNR before the BER lookup.
// Active transmissions live in a small vector ordered by insertion;
// every accumulation walks it in that order, so the floating-point sums
// are a pure function of the event sequence (determinism rule A6).
// CCA only needs the verdict ambient < threshold, so ambient_below()
// first brackets the sum with tabulated path-gain bounds and computes
// the exact sum only when the bracket straddles the threshold.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/topology.hpp"

namespace braidio::net {

struct MediumConfig {
  /// Receiver noise floor for the I/N interference ratio [dBm].
  double noise_floor_dbm = -90.0;
  /// Transmit power every node radiates while on the air [dBm].
  double tx_power_dbm = 0.0;
  /// Log-distance path loss: loss at the 1 m reference distance [dB].
  double ref_loss_db = 40.0;
  /// Log-distance path-loss exponent (2 free space, ~2.2 indoor LoS).
  double path_loss_exponent = 2.2;
};

class SharedMedium {
 public:
  /// `positions` must outlive the medium (the simulator owns both).
  /// Throws std::invalid_argument on a non-finite/non-positive config.
  SharedMedium(MediumConfig config, const std::vector<Vec2>& positions);

  /// Node `tx` starts radiating toward `rx` until `until_s`, at
  /// `power_dbm` as seen by other links (config().tx_power_dbm for an
  /// active transmitter; backscatter reflections pass something lower).
  void begin(std::uint32_t tx, std::uint32_t rx, double until_s,
             double power_dbm);

  /// Node `tx` leaves the air (order-preserving removal).
  void end(std::uint32_t tx);

  std::size_t active_count() const { return active_.size(); }

  /// Log-distance path loss [dB] at separation d (floored at 1 cm).
  double path_loss_db(double distance_m) const;

  /// Total power `node` hears from everyone on the air except
  /// `exclude_tx`, plus the noise floor [dBm] — the CCA input.
  double ambient_dbm(std::uint32_t node, std::uint32_t exclude_tx) const;

  /// CCA verdict, exactly `ambient_dbm(node, exclude_tx) < threshold_dbm`
  /// (DESIGN.md §15). Decided from per-interferer lower/upper path-gain
  /// bounds where they settle it with a 1e-9 relative margin, else by the
  /// exact sum. Non-const only for its counter and threshold memo.
  bool ambient_below(std::uint32_t node, std::uint32_t exclude_tx,
                     double threshold_dbm);

  /// ambient_below() verdicts so far that needed the exact sum.
  std::uint64_t cca_exact_fallbacks() const { return cca_exact_fallbacks_; }

  /// SNR penalty 10*log10(1 + I/N) [dB] at receiver `rx` from all
  /// transmissions other than the one sourced by `exclude_tx`.
  double interference_penalty_db(std::uint32_t rx,
                                 std::uint32_t exclude_tx) const;

  const MediumConfig& config() const { return config_; }

 private:
  struct ActiveTx {
    std::uint32_t tx = 0;
    std::uint32_t rx = 0;
    double until_s = 0.0;
    double power_dbm = 0.0;
    double gain_w = 0.0;  // dbm_to_watts(power_dbm) * ref_gain_, at begin()
  };

  /// Sum of received interference power at `node` [W], insertion order.
  double interference_watts(std::uint32_t node,
                            std::uint32_t exclude_tx) const;

  /// (d^2)^(-n/2) at the bucket edges of d^2 (see the constructor).
  void build_gain_table();

  MediumConfig config_;
  const std::vector<Vec2>& positions_;
  double noise_floor_w_;
  double ref_gain_ = 1.0;  // 10^(-ref_loss_db/10), linear hot-path form
  std::vector<ActiveTx> active_;

  // Bucket k of d^2 holds the values whose bit pattern, shifted right by
  // gain_shift_, is gain_base_ + k: one exponent and the top mantissa
  // bits. gain_edge_[k] is the gain at its lower edge, so gain_edge_[k]
  // and gain_edge_[k + 1] bound every d^2 in it from above and below.
  // Buckets from gain_top_ on lie past the table.
  std::vector<double> gain_edge_;
  int gain_shift_ = 0;
  std::uint64_t gain_base_ = 0;
  std::uint64_t gain_top_ = 0;

  // Last ambient_below() threshold and its dbm_to_watts (NaN: none yet).
  double threshold_dbm_memo_ = std::numeric_limits<double>::quiet_NaN();
  double threshold_w_memo_ = 0.0;
  std::uint64_t cca_exact_fallbacks_ = 0;
};

}  // namespace braidio::net
