#include "src/core/refinement.hpp"

#include <gtest/gtest.h>

#include "src/antenna/synthesis.hpp"
#include "src/common/error.hpp"

namespace talon {
namespace {

PlanarArrayGeometry geometry() { return talon_array_geometry(); }

TEST(Refinement, CandidateGridShapeAndCentering) {
  RefinementConfig config;
  config.azimuth_candidates = 5;
  config.azimuth_step_deg = 2.0;
  config.elevation_candidates = 3;
  config.elevation_step_deg = 4.0;
  const auto candidates =
      make_refinement_candidates(geometry(), {10.0, 6.0}, config);
  ASSERT_EQ(candidates.size(), 15u);
  // Extremes span +-(count-1)/2 steps around the center.
  double min_az = 1e9;
  double max_az = -1e9;
  double min_el = 1e9;
  double max_el = -1e9;
  for (const auto& c : candidates) {
    min_az = std::min(min_az, c.steering.azimuth_deg);
    max_az = std::max(max_az, c.steering.azimuth_deg);
    min_el = std::min(min_el, c.steering.elevation_deg);
    max_el = std::max(max_el, c.steering.elevation_deg);
  }
  EXPECT_DOUBLE_EQ(min_az, 6.0);
  EXPECT_DOUBLE_EQ(max_az, 14.0);
  EXPECT_DOUBLE_EQ(min_el, 2.0);
  EXPECT_DOUBLE_EQ(max_el, 10.0);
}

TEST(Refinement, CandidatesUseFineQuantization) {
  RefinementConfig config;
  const auto candidates = make_refinement_candidates(geometry(), {0.0, 0.0}, config);
  const double step = 2.0 * kPi / config.fine.phase_states;
  for (const auto& c : candidates) {
    for (const Complex& w : c.weights) {
      if (std::abs(w) == 0.0) continue;
      const double ratio = std::arg(w) / step;
      EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
    }
  }
}

TEST(Refinement, SingleCandidateIsTheCenter) {
  RefinementConfig config;
  config.azimuth_candidates = 1;
  config.elevation_candidates = 1;
  const auto candidates = make_refinement_candidates(geometry(), {-20.0, 8.0}, config);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].steering.azimuth_deg, -20.0);
  EXPECT_DOUBLE_EQ(candidates[0].steering.elevation_deg, 8.0);
}

TEST(Refinement, ElevationClampedAtPoles) {
  RefinementConfig config;
  config.elevation_candidates = 3;
  config.elevation_step_deg = 10.0;
  const auto candidates = make_refinement_candidates(geometry(), {0.0, 85.0}, config);
  for (const auto& c : candidates) {
    EXPECT_LE(c.steering.elevation_deg, 90.0);
  }
}

TEST(Refinement, RefineBeamPicksMaximum) {
  RefinementConfig config;
  const auto candidates = make_refinement_candidates(geometry(), {0.0, 0.0}, config);
  // Score candidates by closeness to +2 deg azimuth.
  const auto result = refine_beam(candidates, [](const RefinementCandidate& c) {
    return std::optional<double>(-std::abs(c.steering.azimuth_deg - 2.0));
  });
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.steering.azimuth_deg, 2.0);
  EXPECT_EQ(result.probes, static_cast<int>(candidates.size()));
}

TEST(Refinement, LostProbesAreSkipped) {
  RefinementConfig config;
  const auto candidates = make_refinement_candidates(geometry(), {0.0, 0.0}, config);
  int call = 0;
  const auto result =
      refine_beam(candidates, [&call](const RefinementCandidate&) {
        ++call;
        if (call % 2 == 0) return std::optional<double>();  // every other lost
        return std::optional<double>(static_cast<double>(call));
      });
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.measured, static_cast<double>(call - 1 + (call % 2)));
}

TEST(Refinement, AllProbesLostIsInvalid) {
  RefinementConfig config;
  const auto candidates = make_refinement_candidates(geometry(), {0.0, 0.0}, config);
  const auto result = refine_beam(
      candidates, [](const RefinementCandidate&) { return std::optional<double>(); });
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.probes, static_cast<int>(candidates.size()));
}

TEST(Refinement, FineBeamBeatsCoarseSectorOffPeak) {
  // Ground-truth check: toward a direction between sector peaks, a
  // 16-state refined AWV outgains the best 4-state codebook sector.
  const ArrayGainSource source = make_talon_front_end(1);
  const Direction target{-13.0, 0.0};  // generic off-peak direction
  double best_sector = -1e9;
  for (int id : talon_tx_sector_ids()) {
    best_sector = std::max(best_sector, source.gain_dbi(id, target));
  }
  RefinementConfig config;
  const auto candidates =
      make_refinement_candidates(source.geometry(), target, config);
  double best_refined = -1e9;
  for (const auto& c : candidates) {
    best_refined = std::max(best_refined,
                            source.gain_with_weights(c.weights, source.steer(target)));
  }
  EXPECT_GT(best_refined, best_sector);
}

TEST(Refinement, InvalidConfigRejected) {
  RefinementConfig bad;
  bad.azimuth_candidates = 0;
  EXPECT_THROW(make_refinement_candidates(geometry(), {0.0, 0.0}, bad),
               PreconditionError);
  const std::vector<RefinementCandidate> none;
  EXPECT_THROW(refine_beam(none, [](const RefinementCandidate&) {
                 return std::optional<double>(0.0);
               }),
               PreconditionError);
}

}  // namespace
}  // namespace talon
