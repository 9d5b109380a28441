// Far-field synthesis: from weights to realized gain.
//
// This is the physical ground truth of the simulation. The channel model
// queries it for the gain each sector actually provides toward each ray;
// the measurement campaign (src/measure) observes it only through noisy
// sweeps, mirroring how the paper can only measure its hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/antenna/element.hpp"
#include "src/antenna/gain_source.hpp"
#include "src/antenna/geometry.hpp"
#include "src/antenna/imperfection.hpp"
#include "src/common/grid.hpp"

namespace talon {

/// Realized far-field gain [dBi] of an excitation toward `dir`.
/// Gain = |sum_i w_i * sqrt(g_elem(dir)) * e^{j 2 pi u.p_i}|^2 / sum_i |w_i|^2,
/// i.e. normalized so that a perfectly matched unquantized steering vector
/// attains N * g_elem (array gain times element gain).
double array_gain_dbi(const PlanarArrayGeometry& geometry, const ElementModel& element,
                      const WeightVector& weights, const Direction& dir);

/// The direction-only half of array_gain_dbi: each element's phasor
/// e^{j 2 pi u.p_i} and the linear element (plus chassis) gain toward one
/// direction. With it, any excitation's gain toward that direction is a
/// complex dot product with no trigonometry.
struct Steering {
  std::vector<Complex> phasors;
  double element_gain_lin{0.0};
};

/// Steering toward `dir` (device frame) for one array and element model.
Steering steer(const PlanarArrayGeometry& geometry, const ElementModel& element,
               const Direction& dir);

/// array_gain_dbi over a precomputed steering; `power` must be
/// total_weight_power(weights). Bit-identical to the direction form.
double array_gain_dbi(const WeightVector& weights, double power,
                      const Steering& steering);

/// Ground-truth gain of every sector of one physical device
/// (geometry + element/chassis model + codebook + calibration errors +
/// optional mutual coupling).
class ArrayGainSource final : public GainSource {
 public:
  ArrayGainSource(PlanarArrayGeometry geometry, ElementModel element, Codebook codebook,
                  CalibrationErrors calibration,
                  std::optional<MutualCoupling> coupling = std::nullopt);

  double gain_dbi(int sector_id, const Direction& dir) const override;

  /// This device's steering toward `dir` (device frame).
  Steering steer(const Direction& dir) const;

  /// Codebook index of `sector_id`; throws PreconditionError when the
  /// codebook has no such sector.
  std::size_t sector_index(int sector_id) const;

  /// Gain [dBi] of the sector at codebook index `index` over a steering
  /// from steer(): bit-identical to gain_dbi(id, dir) for the same
  /// direction, at the cost of one 32-term dot product.
  double gain_dbi(std::size_t index, const Steering& steering) const;

  /// Realized gain of an *arbitrary* excitation on this device (the
  /// device's calibration errors apply, exactly as for codebook sectors).
  /// This is the path beam refinement uses to try custom AWVs.
  double gain_with_weights(const WeightVector& weights, const Steering& steering) const;

  /// Process-unique stamp of this front-end's gains, drawn at
  /// construction and never reused, so a destroyed front-end's successor
  /// at the same address cannot pass for it. Copies share the stamp: the
  /// gains are immutable after construction, so equal stamps mean equal
  /// gains. Memoized channel state (channel/link.hpp) keys on it.
  std::uint64_t identity() const { return identity_; }

  const Codebook& codebook() const { return codebook_; }
  const PlanarArrayGeometry& geometry() const { return geometry_; }
  const CalibrationErrors& calibration() const { return calibration_; }

 private:
  WeightVector realize(const WeightVector& weights) const;

  PlanarArrayGeometry geometry_;
  ElementModel element_;
  Codebook codebook_;
  CalibrationErrors calibration_;
  std::optional<MutualCoupling> coupling_;
  // Realized (calibration- and coupling-distorted) weights per codebook
  // entry, index aligned with codebook_.sectors().
  std::vector<WeightVector> realized_;
  /// total_weight_power of each realized_ entry.
  std::vector<double> realized_power_;
  std::uint64_t identity_;
};

/// Sample a sector's ground-truth pattern onto a grid (values in dBi).
Grid2D synthesize_pattern_grid(const GainSource& source, int sector_id,
                               const AngularGrid& grid);

/// Convenience: a complete simulated Talon AD7200 front-end.
/// `device_seed` individualizes chassis ripple and calibration errors.
ArrayGainSource make_talon_front_end(std::uint64_t device_seed);

}  // namespace talon
