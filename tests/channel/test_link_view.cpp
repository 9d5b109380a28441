// LinkView against the per-call channel it replaced.
//
// The reference below is the link budget as it was computed before views
// existed, kept verbatim: every call re-traces the room and evaluates both
// array factors with their full trigonometry, over a front-end rebuilt
// from the same device seed as make_talon_front_end. Every view result
// must equal it bit for bit, in every factory environment, for every TX
// sector, at random poses, with LOS blockage and with each reflector
// disabled. The invalidation cases change one part of the view's key on a
// single LinkSimulator and require exactly what a fresh simulator gives.
#include "src/channel/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/antenna/synthesis.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/core/refinement.hpp"
#include "src/sim/linksim.hpp"
#include "src/sim/node.hpp"

namespace talon {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// make_talon_front_end's parts, evaluated the per-call way.
class ReferenceFrontEnd {
 public:
  explicit ReferenceFrontEnd(std::uint64_t device_seed)
      : geometry_(talon_array_geometry()),
        element_(element_config(device_seed)),
        codebook_(make_talon_codebook(geometry_)),
        calibration_(geometry_.element_count(), calibration_config(device_seed)),
        coupling_(geometry_, MutualCouplingConfig{}) {}

  double gain_dbi(int sector_id, const Direction& dir) const {
    for (const Sector& s : codebook_.sectors()) {
      if (s.id == sector_id) return array_gain(realize(s.weights), dir);
    }
    ADD_FAILURE() << "unknown sector " << sector_id;
    return 0.0;
  }

  double gain_with_weights(const WeightVector& weights, const Direction& dir) const {
    return array_gain(realize(weights), dir);
  }

 private:
  static ElementModelConfig element_config(std::uint64_t seed) {
    ElementModelConfig c;
    c.device_seed = seed;
    return c;
  }
  static CalibrationErrorConfig calibration_config(std::uint64_t seed) {
    CalibrationErrorConfig c;
    c.device_seed = seed ^ 0x5EEDF00DULL;
    return c;
  }

  WeightVector realize(const WeightVector& weights) const {
    return coupling_.apply(calibration_.apply(weights));
  }

  // array_gain_dbi as it was: trigonometry per element, per call.
  double array_gain(const WeightVector& weights, const Direction& dir) const {
    const double power = total_weight_power(weights);
    if (power <= 0.0) return -120.0;
    const Vec3 u = unit_vector(dir);
    const double elem_gain_lin = db_to_linear(element_.gain_dbi(dir));
    Complex field(0.0, 0.0);
    const auto& positions = geometry_.element_positions();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double phase = 2.0 * kPi * dot(u, positions[i]);
      field += weights[i] * Complex(std::cos(phase), std::sin(phase));
    }
    return linear_to_db(std::norm(field) / power * elem_gain_lin);
  }

  PlanarArrayGeometry geometry_;
  ElementModel element_;
  Codebook codebook_;
  CalibrationErrors calibration_;
  MutualCoupling coupling_;
};

// received_power_dbm as it was: one ray trace per call.
double reference_power_dbm(const ReferenceFrontEnd& tx_gain, int tx_sector,
                           const EndpointPose& tx, const ReferenceFrontEnd& rx_gain,
                           int rx_sector, const EndpointPose& rx,
                           const Environment& env, const RadioConfig& radio) {
  double total_mw = 0.0;
  for (const Ray& ray : env.rays(tx.position, rx.position)) {
    const Direction dep_dev = tx.orientation.to_device_frame(ray.departure_world);
    const Direction arr_dev = rx.orientation.to_device_frame(ray.arrival_world);
    const double rx_dbm = radio.tx_power_dbm + tx_gain.gain_dbi(tx_sector, dep_dev) +
                          rx_gain.gain_dbi(rx_sector, arr_dev) + ray.gain_db;
    total_mw += dbm_to_mw(rx_dbm);
  }
  return mw_to_dbm(total_mw);
}

// LinkSimulator::true_snr_with_weights as it was.
double reference_snr_with_weights(const ReferenceFrontEnd& tx_gain,
                                  const WeightVector& weights, const EndpointPose& tx,
                                  const ReferenceFrontEnd& rx_gain, int rx_sector,
                                  const EndpointPose& rx, const Environment& env,
                                  const RadioConfig& radio) {
  double total_mw = 0.0;
  for (const Ray& ray : env.rays(tx.position, rx.position)) {
    const Direction dep_dev = tx.orientation.to_device_frame(ray.departure_world);
    const Direction arr_dev = rx.orientation.to_device_frame(ray.arrival_world);
    const double rx_dbm = radio.tx_power_dbm + tx_gain.gain_with_weights(weights, dep_dev) +
                          rx_gain.gain_dbi(rx_sector, arr_dev) + ray.gain_db;
    total_mw += dbm_to_mw(rx_dbm);
  }
  return mw_to_dbm(total_mw) - radio.noise_floor_dbm();
}

constexpr std::uint64_t kTxSeed = 11;
constexpr std::uint64_t kRxSeed = 12;

NodeConfig node_config(int id, std::uint64_t seed) {
  NodeConfig c;
  c.id = id;
  c.device_seed = seed;
  return c;
}

/// A random pose inside the factory rooms (every reflector stays outside
/// the box), with any heading and a tilt of up to +-35 deg.
EndpointPose random_pose(Rng& rng) {
  return EndpointPose{
      .position = {rng.uniform(-2.0, 4.0), rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.2)},
      .orientation = DeviceOrientation(rng.uniform(-180.0, 180.0), rng.uniform(-35.0, 35.0)),
  };
}

/// The environment states the oracle covers: as built, LOS blocked, and
/// each reflector disabled in turn.
std::vector<std::function<void(RayTracedEnvironment&)>> environment_states(
    const RayTracedEnvironment& env) {
  std::vector<std::function<void(RayTracedEnvironment&)>> states;
  states.emplace_back([](RayTracedEnvironment&) {});
  states.emplace_back([](RayTracedEnvironment& e) { e.set_los_blockage_db(25.0); });
  for (std::size_t i = 0; i < env.reflectors().size(); ++i) {
    states.emplace_back([i](RayTracedEnvironment& e) { e.set_reflector_enabled(i, false); });
  }
  return states;
}

/// A factory environment, printed by name so each case's test name is the
/// same on every run (a bare function pointer prints as its address).
struct FactoryEnvironment {
  const char* name;
  std::unique_ptr<Environment> (*make)();
};

void PrintTo(const FactoryEnvironment& f, std::ostream* os) { *os << f.name; }

class LinkViewOracle : public ::testing::TestWithParam<FactoryEnvironment> {};

TEST_P(LinkViewOracle, EveryTxSectorMatchesPerCallTraceBitForBit) {
  const ReferenceFrontEnd tx_ref(kTxSeed);
  const ReferenceFrontEnd rx_ref(kRxSeed);
  Node tx(node_config(1, kTxSeed));
  Node rx(node_config(2, kRxSeed));
  const RadioConfig radio;
  const MeasurementModelConfig measurement;
  const auto prototype = GetParam().make();
  const auto& room = dynamic_cast<const RayTracedEnvironment&>(*prototype);
  Rng rng(2024);
  std::size_t compared = 0;
  for (const auto& apply_state : environment_states(room)) {
    RayTracedEnvironment env = room;
    apply_state(env);
    // One simulator per state, reused across poses, so the memo's
    // invalidation is exercised on every pose change.
    const LinkSimulator sim(env, radio, measurement, Rng(1));
    for (int pose = 0; pose < 6; ++pose) {
      tx.pose() = random_pose(rng);
      rx.pose() = random_pose(rng);
      for (int sector : talon_tx_sector_ids()) {
        const double expected = reference_power_dbm(tx_ref, sector, tx.pose(), rx_ref,
                                                    kRxQuasiOmniSectorId, rx.pose(), env,
                                                    radio);
        const double once = received_power_dbm(tx.front_end(), sector, tx.pose(),
                                               rx.front_end(), kRxQuasiOmniSectorId,
                                               rx.pose(), env, radio);
        ASSERT_EQ(bits(once), bits(expected)) << "sector " << sector << " pose " << pose;
        const double memo = sim.true_snr_db(tx, sector, rx, kRxQuasiOmniSectorId);
        ASSERT_EQ(bits(memo), bits(expected - radio.noise_floor_dbm()))
            << "sector " << sector << " pose " << pose;
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 6u * 34u * 2u);
}

TEST_P(LinkViewOracle, ArbitraryAwvMatchesPerCallTraceBitForBit) {
  const ReferenceFrontEnd tx_ref(kTxSeed);
  const ReferenceFrontEnd rx_ref(kRxSeed);
  Node tx(node_config(1, kTxSeed));
  Node rx(node_config(2, kRxSeed));
  const RadioConfig radio;
  const auto env = GetParam().make();
  const LinkSimulator sim(*env, radio, MeasurementModelConfig{}, Rng(1));
  Rng rng(77);
  for (int pose = 0; pose < 4; ++pose) {
    tx.pose() = random_pose(rng);
    rx.pose() = random_pose(rng);
    const Direction around{rng.uniform(-60.0, 60.0), rng.uniform(-20.0, 20.0)};
    for (const RefinementCandidate& c :
         make_refinement_candidates(tx.front_end().geometry(), around, {})) {
      const double expected = reference_snr_with_weights(
          tx_ref, c.weights, tx.pose(), rx_ref, kRxQuasiOmniSectorId, rx.pose(), *env,
          radio);
      ASSERT_EQ(bits(sim.true_snr_with_weights(tx, c.weights, rx, kRxQuasiOmniSectorId)),
                bits(expected));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FactoryEnvironments, LinkViewOracle,
                         ::testing::Values(
                             FactoryEnvironment{"anechoic_chamber", &make_anechoic_chamber},
                             FactoryEnvironment{"lab", &make_lab_environment},
                             FactoryEnvironment{"conference_room", &make_conference_room}));

// --- invalidation: one simulator, one key part changed between calls -------

class LinkViewInvalidation : public ::testing::Test {
 protected:
  LinkViewInvalidation()
      : room_(make_conference_room()),
        env_(dynamic_cast<RayTracedEnvironment&>(*room_)),
        sim_(env_, radio_, measurement_, Rng(3)) {
    tx_.emplace(node_config(1, kTxSeed));
    rx_.emplace(node_config(2, kRxSeed));
    tx_->pose() = EndpointPose{{0.0, 0.0, 1.0}, DeviceOrientation(10.0, 0.0)};
    rx_->pose() = EndpointPose{{6.0, 0.5, 1.0}, DeviceOrientation(180.0, 0.0)};
  }

  /// Every TX sector's SNR through the long-lived simulator.
  std::vector<double> memoized() const { return sweep(sim_); }

  /// The same through a simulator that has never seen this link.
  std::vector<double> fresh() const {
    return sweep(LinkSimulator(env_, radio_, measurement_, Rng(3)));
  }

  std::vector<double> sweep(const LinkSimulator& sim) const {
    std::vector<double> out;
    for (int sector : talon_tx_sector_ids()) {
      out.push_back(sim.true_snr_db(*tx_, sector, *rx_, kRxQuasiOmniSectorId));
    }
    return out;
  }

  /// Warm the memo, apply `change`, and require the fresh result -- which
  /// must differ from the stale one, or the case would prove nothing.
  void expect_invalidated(const std::function<void()>& change) {
    const std::vector<double> before = memoized();
    change();
    const std::vector<double> after = memoized();
    const std::vector<double> expected = fresh();
    ASSERT_EQ(after.size(), expected.size());
    bool moved = false;
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(bits(after[i]), bits(expected[i])) << "sector index " << i;
      moved = moved || bits(before[i]) != bits(after[i]);
    }
    EXPECT_TRUE(moved) << "the change left every sector's SNR unchanged";
  }

  RadioConfig radio_;
  MeasurementModelConfig measurement_;
  std::unique_ptr<Environment> room_;
  RayTracedEnvironment& env_;
  LinkSimulator sim_;
  std::optional<Node> tx_;
  std::optional<Node> rx_;
};

TEST_F(LinkViewInvalidation, MovingANode) {
  expect_invalidated([&] { rx_->pose().position.y = -0.7; });
}

TEST_F(LinkViewInvalidation, RotatingANode) {
  expect_invalidated([&] { tx_->pose().orientation = DeviceOrientation(-25.0, 0.0); });
}

TEST_F(LinkViewInvalidation, TiltingANode) {
  expect_invalidated([&] { tx_->pose().orientation = DeviceOrientation(10.0, 20.0); });
}

TEST_F(LinkViewInvalidation, LosBlockage) {
  expect_invalidated([&] { env_.set_los_blockage_db(30.0); });
}

TEST_F(LinkViewInvalidation, ReflectorDisabled) {
  expect_invalidated([&] { env_.set_reflector_enabled(0, false); });
}

TEST_F(LinkViewInvalidation, SuccessorNodeAtTheSameAddress) {
  // A different device built in the same storage, with the TX behind it
  // where the chassis ripple (which depends on the device) shapes its
  // gain: a view keyed on the address alone would serve the old device's.
  rx_->pose().orientation = DeviceOrientation(30.0, 0.0);
  const Node* const address = &*rx_;
  expect_invalidated([&] {
    const EndpointPose pose = rx_->pose();
    rx_.emplace(node_config(2, kRxSeed + 100));
    rx_->pose() = pose;
    ASSERT_EQ(&*rx_, address);
  });
}

TEST_F(LinkViewInvalidation, SignedZeroPoseIsADifferentKey) {
  // 0.0 and -0.0 compare equal as values, but the sign reaches an atan2
  // (the LOS arrival azimuth flips between +180 and -180 deg), and at
  // this pose the last bit of some sectors' SNR follows it: the key must
  // compare bits.
  tx_->pose() = EndpointPose{{0.0, 0.0, 1.0}, DeviceOrientation(65.0, -20.0)};
  rx_->pose() = EndpointPose{{2.0, 0.0, 1.0}, DeviceOrientation(-170.0, 10.0)};
  expect_invalidated([&] { tx_->pose().position.y = -0.0; });
}

TEST_F(LinkViewInvalidation, RestoringTheEnvironmentGivesTheOriginalBits) {
  const std::vector<double> clear = memoized();
  env_.set_los_blockage_db(30.0);
  memoized();
  env_.set_los_blockage_db(0.0);
  const std::vector<double> restored = memoized();
  for (std::size_t i = 0; i < clear.size(); ++i) {
    EXPECT_EQ(bits(restored[i]), bits(clear[i]));
  }
}

TEST(LinkView, UnknownSectorStillThrows) {
  const ArrayGainSource tx = make_talon_front_end(1);
  const ArrayGainSource rx = make_talon_front_end(2);
  const auto env = make_lab_environment();
  const EndpointPose a{{0.0, 0.0, 1.0}, DeviceOrientation(0.0, 0.0)};
  const EndpointPose b{{3.0, 0.0, 1.0}, DeviceOrientation(180.0, 0.0)};
  LinkView view(tx, a, rx, b, *env);
  const RadioConfig radio;
  EXPECT_THROW(view.received_power_dbm(9999, kRxQuasiOmniSectorId, radio),
               PreconditionError);
  EXPECT_THROW(view.received_power_dbm(63, 9999, radio), PreconditionError);
  // A failed lookup leaves the view usable.
  EXPECT_EQ(bits(view.received_power_dbm(63, kRxQuasiOmniSectorId, radio)),
            bits(received_power_dbm(tx, 63, a, rx, kRxQuasiOmniSectorId, b, *env, radio)));
  EXPECT_THROW(tx.sector_index(-5), PreconditionError);
}

}  // namespace
}  // namespace talon
