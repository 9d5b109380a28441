#include "src/antenna/synthesis.hpp"

#include <atomic>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/common/vec3.hpp"

namespace talon {

namespace {

/// Source of ArrayGainSource::identity() stamps; 0 is never drawn.
std::atomic<std::uint64_t> next_front_end_identity{1};

}  // namespace

Steering steer(const PlanarArrayGeometry& geometry, const ElementModel& element,
               const Direction& dir) {
  const Vec3 u = unit_vector(dir);
  Steering out;
  out.element_gain_lin = db_to_linear(element.gain_dbi(dir));
  const auto& positions = geometry.element_positions();
  out.phasors.reserve(positions.size());
  for (const Vec3& p : positions) {
    const double phase = 2.0 * kPi * dot(u, p);
    out.phasors.emplace_back(std::cos(phase), std::sin(phase));
  }
  return out;
}

double array_gain_dbi(const WeightVector& weights, double power,
                      const Steering& steering) {
  TALON_EXPECTS(weights.size() == steering.phasors.size());
  if (power <= 0.0) return -120.0;  // all elements off
  Complex field(0.0, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    field += weights[i] * steering.phasors[i];
  }
  // Matched unquantized steering yields |field|^2 = N^2 * power/N, so the
  // normalized array factor peaks at N; the element gain multiplies on top.
  return linear_to_db(std::norm(field) / power * steering.element_gain_lin);
}

double array_gain_dbi(const PlanarArrayGeometry& geometry, const ElementModel& element,
                      const WeightVector& weights, const Direction& dir) {
  TALON_EXPECTS(weights.size() == geometry.element_count());
  return array_gain_dbi(weights, total_weight_power(weights),
                        steer(geometry, element, dir));
}

ArrayGainSource::ArrayGainSource(PlanarArrayGeometry geometry, ElementModel element,
                                 Codebook codebook, CalibrationErrors calibration,
                                 std::optional<MutualCoupling> coupling)
    : geometry_(std::move(geometry)),
      element_(std::move(element)),
      codebook_(std::move(codebook)),
      calibration_(std::move(calibration)),
      coupling_(std::move(coupling)),
      identity_(next_front_end_identity.fetch_add(1, std::memory_order_relaxed)) {
  TALON_EXPECTS(calibration_.element_count() == geometry_.element_count());
  if (coupling_) {
    TALON_EXPECTS(coupling_->element_count() == geometry_.element_count());
  }
  realized_.reserve(codebook_.size());
  realized_power_.reserve(codebook_.size());
  for (const Sector& s : codebook_.sectors()) {
    TALON_EXPECTS(s.weights.size() == geometry_.element_count());
    realized_.push_back(realize(s.weights));
    realized_power_.push_back(total_weight_power(realized_.back()));
  }
}

WeightVector ArrayGainSource::realize(const WeightVector& weights) const {
  // The drive passes the miscalibrated RF chains first, then couples in
  // the aperture.
  WeightVector out = calibration_.apply(weights);
  if (coupling_) out = coupling_->apply(out);
  return out;
}

Steering ArrayGainSource::steer(const Direction& dir) const {
  return talon::steer(geometry_, element_, dir);
}

std::size_t ArrayGainSource::sector_index(int sector_id) const {
  const auto& sectors = codebook_.sectors();
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    if (sectors[i].id == sector_id) return i;
  }
  throw PreconditionError("unknown sector id " + std::to_string(sector_id));
}

double ArrayGainSource::gain_dbi(std::size_t index, const Steering& steering) const {
  TALON_EXPECTS(index < realized_.size());
  return array_gain_dbi(realized_[index], realized_power_[index], steering);
}

double ArrayGainSource::gain_with_weights(const WeightVector& weights,
                                          const Steering& steering) const {
  const WeightVector realized = realize(weights);
  return array_gain_dbi(realized, total_weight_power(realized), steering);
}

double ArrayGainSource::gain_dbi(int sector_id, const Direction& dir) const {
  return gain_dbi(sector_index(sector_id), steer(dir));
}

Grid2D synthesize_pattern_grid(const GainSource& source, int sector_id,
                               const AngularGrid& grid) {
  Grid2D out(grid);
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      out.set(ia, ie, source.gain_dbi(sector_id, grid.direction(ia, ie)));
    }
  }
  return out;
}

ArrayGainSource make_talon_front_end(std::uint64_t device_seed) {
  PlanarArrayGeometry geometry = talon_array_geometry();
  ElementModelConfig element_config;
  element_config.device_seed = device_seed;
  CalibrationErrorConfig cal_config;
  cal_config.device_seed = device_seed ^ 0x5EEDF00DULL;
  return ArrayGainSource(geometry, ElementModel(element_config),
                         make_talon_codebook(geometry),
                         CalibrationErrors(geometry.element_count(), cal_config),
                         MutualCoupling(geometry, MutualCouplingConfig{}));
}

}  // namespace talon
