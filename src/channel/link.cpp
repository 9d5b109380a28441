#include "src/channel/link.hpp"

#include <bit>

namespace talon {

namespace {

/// Poses compared bit for bit: value equality would let 0.0 and -0.0
/// match, and the sign of a zero can flip an atan2 in the ray geometry.
bool same_pose(const EndpointPose& a, const EndpointPose& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.position.x) == bits(b.position.x) &&
         bits(a.position.y) == bits(b.position.y) &&
         bits(a.position.z) == bits(b.position.z) &&
         bits(a.orientation.azimuth_deg()) == bits(b.orientation.azimuth_deg()) &&
         bits(a.orientation.tilt_deg()) == bits(b.orientation.tilt_deg());
}

}  // namespace

LinkView::LinkView(const ArrayGainSource& tx_gain, const EndpointPose& tx,
                   const ArrayGainSource& rx_gain, const EndpointPose& rx,
                   const Environment& env)
    : tx_gain_(&tx_gain),
      rx_gain_(&rx_gain),
      tx_identity_(tx_gain.identity()),
      rx_identity_(rx_gain.identity()),
      tx_pose_(tx),
      rx_pose_(rx),
      env_revision_(env.revision()) {
  for (const Ray& ray : env.rays(tx.position, rx.position)) {
    rays_.push_back(RayTerms{
        .tx = tx_gain.steer(tx.orientation.to_device_frame(ray.departure_world)),
        .rx = rx_gain.steer(rx.orientation.to_device_frame(ray.arrival_world)),
        .gain_db = ray.gain_db,
    });
  }
  rx_gain_dbi_.resize(rays_.size());
}

bool LinkView::traced_for(const ArrayGainSource& tx_gain, const EndpointPose& tx,
                          const ArrayGainSource& rx_gain, const EndpointPose& rx,
                          const Environment& env) const {
  // The address match makes the stored pointers the caller's live
  // front-ends; the identity match rejects a successor at a reused address.
  return &tx_gain == tx_gain_ && tx_gain.identity() == tx_identity_ &&
         &rx_gain == rx_gain_ && rx_gain.identity() == rx_identity_ &&
         env.revision() == env_revision_ && same_pose(tx, tx_pose_) &&
         same_pose(rx, rx_pose_);
}

template <typename TxGain>
double LinkView::sum_rays(const TxGain& tx_gain_dbi, int rx_sector,
                          const RadioConfig& radio) {
  if (rx_sector_ != rx_sector) {
    const std::size_t index = rx_gain_->sector_index(rx_sector);
    for (std::size_t k = 0; k < rays_.size(); ++k) {
      rx_gain_dbi_[k] = rx_gain_->gain_dbi(index, rays_[k].rx);
    }
    rx_sector_ = rx_sector;
  }
  double total_mw = 0.0;
  for (std::size_t k = 0; k < rays_.size(); ++k) {
    const double rx_dbm = radio.tx_power_dbm + tx_gain_dbi(rays_[k].tx) +
                          rx_gain_dbi_[k] + rays_[k].gain_db;
    total_mw += dbm_to_mw(rx_dbm);
  }
  return mw_to_dbm(total_mw);
}

double LinkView::received_power_dbm(int tx_sector, int rx_sector,
                                    const RadioConfig& radio) {
  const std::size_t index = tx_gain_->sector_index(tx_sector);
  return sum_rays(
      [this, index](const Steering& s) { return tx_gain_->gain_dbi(index, s); },
      rx_sector, radio);
}

double LinkView::received_power_dbm(const WeightVector& tx_weights, int rx_sector,
                                    const RadioConfig& radio) {
  return sum_rays(
      [this, &tx_weights](const Steering& s) {
        return tx_gain_->gain_with_weights(tx_weights, s);
      },
      rx_sector, radio);
}

double received_power_dbm(const ArrayGainSource& tx_gain, int tx_sector,
                          const EndpointPose& tx, const ArrayGainSource& rx_gain,
                          int rx_sector, const EndpointPose& rx,
                          const Environment& env, const RadioConfig& radio) {
  return LinkView(tx_gain, tx, rx_gain, rx, env)
      .received_power_dbm(tx_sector, rx_sector, radio);
}

double link_snr_db(const ArrayGainSource& tx_gain, int tx_sector,
                   const EndpointPose& tx, const ArrayGainSource& rx_gain,
                   int rx_sector, const EndpointPose& rx, const Environment& env,
                   const RadioConfig& radio) {
  return received_power_dbm(tx_gain, tx_sector, tx, rx_gain, rx_sector, rx, env,
                            radio) -
         radio.noise_floor_dbm();
}

}  // namespace talon
