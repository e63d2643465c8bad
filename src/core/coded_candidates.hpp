// Coded operating points for the offload planner.
//
// Hamming(7,4)+interleaving (mac/fec) converts SNR margin into range: a
// link whose raw BER is above the 1e-2 threshold can still deliver a
// residual BER below it after decoding, at a 4/7 throughput cost. Exposing
// "coded backscatter@10k" etc. as additional operating points lets Eq. 1
// braid them like any other mode — which *extends Regime A*: the carrier
// can be offloaded to either end out to the coded backscatter limit
// (~2.7 m instead of 2.4 m with the default calibration).
#pragma once

#include <vector>

#include "core/regimes.hpp"
#include "hal/channel_model.hpp"

namespace braidio::core {

struct CodedCandidate {
  hal::OperatingPoint candidate;  // per-bit powers at the *effective* bitrate
  bool coded = false;
};

/// The coded operating range of (mode, rate): largest distance where the
/// Hamming(7,4) residual BER stays under the channel's threshold.
double coded_range_m(const hal::ChannelModel& channel, hal::LinkMode mode,
                     hal::Bitrate rate);

/// True if the coded link works at `distance_m` (residual BER under the
/// threshold).
bool coded_available(const hal::ChannelModel& channel, hal::LinkMode mode,
                     hal::Bitrate rate, double distance_m);

/// Candidate set at a distance including coded variants where (a) the
/// uncoded link is dead and (b) the coded link still clears the threshold.
/// Coded variants keep each end's power but deliver code_rate * bitrate,
/// so their per-bit costs are 7/4 of the uncoded entry.
std::vector<CodedCandidate> candidates_with_coding(const RegimeMap& map,
                                                   double distance_m);

/// Regime-A limit when coded backscatter counts (the extended offload
/// horizon).
double coded_regime_a_limit_m(const RegimeMap& map);

}  // namespace braidio::core
