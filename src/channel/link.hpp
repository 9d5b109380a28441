// Link budget: per-sector received power and true SNR.
//
// Combines environment rays with the TX sector's and RX sector's realized
// gains (evaluated in each device's frame) and sums ray powers
// noncoherently. LinkView is the one implementation: it traces a link
// once per (front-ends, poses, environment revision) and evaluates any
// sector pair against the traced rays. This "true" SNR is what the PHY measurement model
// (src/phy) then distorts into the firmware-reported SNR/RSSI.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/antenna/synthesis.hpp"
#include "src/channel/environment.hpp"
#include "src/channel/orientation.hpp"
#include "src/common/units.hpp"
#include "src/common/vec3.hpp"

namespace talon {

struct RadioConfig {
  /// Conducted transmit power [dBm]. The default is calibrated so that the
  /// strongest sector at 3 m (anechoic) reports ~11 dB on the firmware
  /// scale -- just below the 12 dB clamp, like the paper's Fig. 5 peaks.
  double tx_power_dbm{8.0};
  /// Receiver noise figure [dB].
  double noise_figure_db{10.0};
  /// Receiver bandwidth [Hz].
  double bandwidth_hz{kChannelBandwidthHz};

  double noise_floor_dbm() const {
    return thermal_noise_dbm(bandwidth_hz, noise_figure_db);
  }
};

/// Full pose of one end of a link.
struct EndpointPose {
  Vec3 position;
  DeviceOrientation orientation;
};

/// One link's channel at fixed poses, traced once: the environment's
/// rays, each ray's steering at both ends (device-frame departure at the
/// TX, arrival at the RX) and path gain, and the per-ray gains of the RX
/// sector last asked for. Every evaluation is then a per-ray dot product
/// with no ray tracing and no trigonometry, bit-identical to tracing
/// afresh: rays are summed in ray order with the same
/// tx_power + tx_gain + rx_gain + ray_gain association.
///
/// The view is valid for exactly what traced_for() checks -- both
/// front-ends (address and identity()), both poses bit for bit, and the
/// environment's revision(). It keeps pointers to both front-ends and may
/// be evaluated only while they live; traced_for() never dereferences
/// them, so a memo may keep a view past its front-ends. Evaluation updates
/// the RX-gain cache, so one view must not be used from two threads at
/// once.
class LinkView {
 public:
  LinkView(const ArrayGainSource& tx_gain, const EndpointPose& tx,
           const ArrayGainSource& rx_gain, const EndpointPose& rx,
           const Environment& env);

  /// True when this view holds the channel between exactly these
  /// front-ends at exactly these poses in the environment's current state.
  bool traced_for(const ArrayGainSource& tx_gain, const EndpointPose& tx,
                  const ArrayGainSource& rx_gain, const EndpointPose& rx,
                  const Environment& env) const;

  /// Received power [dBm] at the RX for a transmission on `tx_sector`,
  /// received on `rx_sector`; sums all rays noncoherently.
  double received_power_dbm(int tx_sector, int rx_sector, const RadioConfig& radio);

  /// The same for an arbitrary AWV at the transmitter (the device's
  /// calibration errors apply, exactly as for codebook sectors).
  double received_power_dbm(const WeightVector& tx_weights, int rx_sector,
                            const RadioConfig& radio);

 private:
  struct RayTerms {
    Steering tx;
    Steering rx;
    double gain_db{0.0};
  };

  /// The ray sum, with `tx_gain_dbi(steering)` giving the TX gain.
  template <typename TxGain>
  double sum_rays(const TxGain& tx_gain_dbi, int rx_sector, const RadioConfig& radio);

  const ArrayGainSource* tx_gain_;
  const ArrayGainSource* rx_gain_;
  std::uint64_t tx_identity_;
  std::uint64_t rx_identity_;
  EndpointPose tx_pose_;
  EndpointPose rx_pose_;
  std::uint64_t env_revision_;
  std::vector<RayTerms> rays_;
  /// Per-ray gains [dBi] of rx_sector_ (unset until the first evaluation).
  std::optional<int> rx_sector_;
  std::vector<double> rx_gain_dbi_;
};

/// Received power [dBm] at `rx` for a transmission from `tx` using the
/// given sector IDs: one LinkView, evaluated once.
double received_power_dbm(const ArrayGainSource& tx_gain, int tx_sector,
                          const EndpointPose& tx, const ArrayGainSource& rx_gain,
                          int rx_sector, const EndpointPose& rx,
                          const Environment& env, const RadioConfig& radio);

/// True link SNR [dB]: received power minus the RX noise floor.
double link_snr_db(const ArrayGainSource& tx_gain, int tx_sector,
                   const EndpointPose& tx, const ArrayGainSource& rx_gain,
                   int rx_sector, const EndpointPose& rx, const Environment& env,
                   const RadioConfig& radio);

}  // namespace talon
