#include "src/core/css.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

CssConfig synthetic_config() {
  CssConfig c;
  c.search_grid = synthetic_grid();
  return c;
}

/// One-shot selection over every transmit sector.
CssResult select_tx(const CompressiveSectorSelector& css,
                    std::span<const SectorReading> probes) {
  CorrelationWorkspace ws;
  return css.select(probes, css.assets()->tx_candidates(), ws);
}

TEST(Css, SelectsBestSectorWithIdealProbes) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  // Truth at -35 deg: sector 2 peaks exactly there.
  const auto probes = ideal_probes(table, {1, 3, 5, 7, 9}, {-35.0, 0.0});
  const CssResult r = select_tx(css, probes);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.fallback_used);
  EXPECT_EQ(r.sector_id, 2);  // selected although sector 2 was never probed
  ASSERT_TRUE(r.estimated_direction.has_value());
  EXPECT_LE(angular_separation_deg(*r.estimated_direction, {-35.0, 0.0}), 6.0);
  EXPECT_GT(r.correlation_peak, 0.9);
}

TEST(Css, CandidateCountExceedsProbeCount) {
  // The compressive property (Sec. 2.2): N available >> M probed.
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7, 9}, {24.0, 0.0});
  const CssResult r = select_tx(css, probes);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.sector_id, 6);  // peak at +25, never probed
}

TEST(Css, ElevatedPathSelectsElevatedSector) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {2, 4, 6, 8, 9}, {0.0, 20.0});
  const CssResult r = select_tx(css, probes);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.sector_id, 8);
  EXPECT_GT(r.estimated_direction->elevation_deg, 10.0);
}

TEST(Css, RestrictedCandidatesRespected) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7}, {-35.0, 0.0});
  const std::vector<int> candidates{5, 6, 7};
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, candidates, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.sector_id == 5 || r.sector_id == 6 || r.sector_id == 7);
}

TEST(Css, EmptyProbesInvalidResult) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  const std::vector<SectorReading> none;
  const CssResult r = select_tx(css, none);
  EXPECT_FALSE(r.valid);
}

TEST(Css, FallbackArgmaxBelowMinProbes) {
  const PatternTable table = synthetic_table();
  CssConfig config = synthetic_config();
  config.min_probes = 4;
  const CompressiveSectorSelector css(table, config);
  const auto probes = ideal_probes(table, {3, 6}, {25.0, 0.0});
  const CssResult r = select_tx(css, probes);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.fallback_used);
  EXPECT_FALSE(r.estimated_direction.has_value());
  // Argmax over the two readings: sector 6 is far stronger toward +25.
  EXPECT_EQ(r.sector_id, 6);
}

TEST(Css, EstimateDirectionNulloptOnTooFewProbes) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  const auto probes = ideal_probes(synthetic_table(), {3, 6}, {25.0, 0.0});
  CorrelationWorkspace ws;
  EXPECT_FALSE(css.estimate_direction(probes, ws).has_value());
}

TEST(Css, RobustToSnrOutlierViaRssiProduct) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const Direction truth{-20.0, 0.0};
  auto probes = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7}, truth);
  probes[6].snr_db = 12.0;  // bogus spike on sector 7 (peak at +40)
  const CssResult r = select_tx(css, probes);
  ASSERT_TRUE(r.valid);
  // The well-constrained azimuth axis must survive the outlier.
  EXPECT_LE(azimuth_distance_deg(r.estimated_direction->azimuth_deg,
                                 truth.azimuth_deg),
            6.0);
}

TEST(Css, SnrOnlyModeIsMoreSensitiveToOutliers) {
  const PatternTable table = synthetic_table();
  const Direction truth{-20.0, 0.0};
  auto probes = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7}, truth);
  // Severe coordinated outlier on two sectors' SNR only.
  probes[5].snr_db = 12.0;
  probes[6].snr_db = 12.0;

  CssConfig with_rssi = synthetic_config();
  CssConfig snr_only = synthetic_config();
  snr_only.use_rssi = false;
  const CssResult r_product =
      select_tx(CompressiveSectorSelector(table, with_rssi), probes);
  const CssResult r_snr = select_tx(CompressiveSectorSelector(table, snr_only), probes);
  const double err_product =
      angular_separation_deg(*r_product.estimated_direction, truth);
  const double err_snr = angular_separation_deg(*r_snr.estimated_direction, truth);
  EXPECT_LE(err_product, err_snr + 1e-9);
}

TEST(Css, DefaultCandidatesExcludeRxSector) {
  // A table containing the RX quasi-omni pattern must never select it.
  PatternTable table = synthetic_table();
  Grid2D omni(synthetic_grid(), 11.9);  // strong everywhere
  table.add(kRxQuasiOmniSectorId, omni);
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7}, {10.0, 0.0});
  const CssResult r = select_tx(css, probes);
  EXPECT_TRUE(r.valid);
  EXPECT_NE(r.sector_id, kRxQuasiOmniSectorId);
}

// --- hostile reading values ------------------------------------------------

const double kHostileValues[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(), 1e308,
                                 -1e308};

TEST(Css, HostileReadingIsDroppedLikeAMissedProbe) {
  // One NaN, +-inf or overflowing value in a reading's SNR or RSSI drops
  // that reading: the selection equals the one on the sweep without it.
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto clean = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7}, {-20.0, 0.0});
  std::vector<SectorReading> without = clean;
  without.erase(without.begin() + 3);
  const CssResult expected = select_tx(css, without);
  ASSERT_TRUE(expected.valid);
  for (const double bad : kHostileValues) {
    for (const bool in_snr : {true, false}) {
      auto probes = clean;
      (in_snr ? probes[3].snr_db : probes[3].rssi_dbm) = bad;
      const ProbeVectors collected =
          css.assets()->engine().collect_probes(probes, true, true);
      EXPECT_EQ(collected.dropped, 1u);
      EXPECT_EQ(collected.slots.size(), without.size());
      CssResult r;
      ASSERT_NO_THROW(r = select_tx(css, probes)) << bad << " in_snr " << in_snr;
      EXPECT_TRUE(r.valid);
      EXPECT_FALSE(r.fallback_used);
      EXPECT_EQ(r.sector_id, expected.sector_id);
      EXPECT_EQ(r.correlation_peak, expected.correlation_peak);
      ASSERT_TRUE(r.estimated_direction.has_value());
      EXPECT_EQ(r.estimated_direction->azimuth_deg,
                expected.estimated_direction->azimuth_deg);
      EXPECT_EQ(r.estimated_direction->elevation_deg,
                expected.estimated_direction->elevation_deg);
      CorrelationWorkspace ws;
      EXPECT_NO_THROW(css.estimate_direction(probes, ws));
    }
  }
}

TEST(Css, AllHostileSweepFallsBackOrStaysInvalid) {
  // A sweep with no usable reading never throws: hostile RSSI leaves the
  // SNR argmax fallback, hostile SNR leaves nothing to rank (an invalid
  // result: the caller keeps its previous selection).
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto clean = ideal_probes(table, {1, 3, 5, 7}, {25.0, 0.0});
  const int strongest = std::max_element(clean.begin(), clean.end(),
                                         [](const SectorReading& a,
                                            const SectorReading& b) {
                                           return a.snr_db < b.snr_db;
                                         })
                            ->sector_id;
  for (const double bad : kHostileValues) {
    auto bad_rssi = clean;
    for (SectorReading& r : bad_rssi) r.rssi_dbm = bad;
    CssResult r;
    ASSERT_NO_THROW(r = select_tx(css, bad_rssi));
    EXPECT_TRUE(r.valid);
    EXPECT_TRUE(r.fallback_used);
    EXPECT_EQ(r.sector_id, strongest);

    auto bad_snr = clean;
    for (SectorReading& s : bad_snr) s.snr_db = bad;
    ASSERT_NO_THROW(r = select_tx(css, bad_snr));
    EXPECT_FALSE(r.valid);
  }
}

TEST(Css, BatchedSelectEqualsSelectPerSweep) {
  // select() is a batch of one; a mixed batch (argmax path, fallback,
  // empty, hostile) gives each sweep exactly its own select() result.
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  std::vector<std::vector<SectorReading>> sweeps{
      ideal_probes(table, {1, 3, 5, 7, 9}, {-35.0, 0.0}),
      ideal_probes(table, {3, 6}, {25.0, 0.0}),
      {},
      ideal_probes(table, {1, 3, 5, 7, 9}, {10.0, 0.0}),
      ideal_probes(table, {2, 4, 6, 8}, {0.0, 20.0}),
  };
  sweeps[4][1].snr_db = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<CssResult> batched(sweeps.size());
  CorrelationWorkspace ws;
  css.select_batch(views, css.assets()->tx_candidates(), batched, ws);
  std::vector<std::optional<Direction>> directions(sweeps.size());
  css.estimate_directions(views, directions, ws);
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const CssResult single = select_tx(css, sweeps[i]);
    EXPECT_EQ(batched[i].valid, single.valid) << i;
    EXPECT_EQ(batched[i].sector_id, single.sector_id) << i;
    EXPECT_EQ(batched[i].fallback_used, single.fallback_used) << i;
    EXPECT_EQ(batched[i].correlation_peak, single.correlation_peak) << i;
    ASSERT_EQ(batched[i].estimated_direction.has_value(),
              single.estimated_direction.has_value())
        << i;
    ASSERT_EQ(directions[i].has_value(), single.estimated_direction.has_value()) << i;
    if (single.estimated_direction) {
      EXPECT_EQ(batched[i].estimated_direction->azimuth_deg,
                single.estimated_direction->azimuth_deg);
      EXPECT_EQ(directions[i]->azimuth_deg, single.estimated_direction->azimuth_deg);
      EXPECT_EQ(directions[i]->elevation_deg,
                single.estimated_direction->elevation_deg);
    }
  }
}

// --- the output invariant ---------------------------------------------------

bool on_grid(const Direction& d, const AngularGrid& grid) {
  return d.azimuth_deg >= grid.azimuth.first && d.azimuth_deg <= grid.azimuth.last() &&
         d.elevation_deg >= grid.elevation.first &&
         d.elevation_deg <= grid.elevation.last();
}

TEST(CssSelectionInvariant, ForgedViolationsThrow) {
  const AngularGrid grid = synthetic_grid();
  const CssResult ok{.valid = true,
                     .sector_id = 1,
                     .estimated_direction = Direction{-60.0, 30.0},
                     .correlation_peak = 1.0};
  EXPECT_NO_THROW(check_selection_invariant(ok, grid));
  for (const double peak : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -1.0, 1.5}) {
    CssResult bad = ok;
    bad.correlation_peak = peak;
    EXPECT_THROW(check_selection_invariant(bad, grid), InvariantError) << peak;
    bad.valid = false;  // an invalid result carries no claim
    EXPECT_NO_THROW(check_selection_invariant(bad, grid));
  }
  for (const Direction d : {Direction{-90.0, 0.0}, Direction{60.5, 0.0},
                            Direction{0.0, -2.0}, Direction{0.0, 35.0},
                            Direction{std::numeric_limits<double>::quiet_NaN(), 0.0}}) {
    CssResult bad = ok;
    bad.estimated_direction = d;
    EXPECT_THROW(check_selection_invariant(bad, grid), InvariantError)
        << d.azimuth_deg << ", " << d.elevation_deg;
  }
}

TEST(CssMutationCampaign, NoSelectionIsEverOffGridOrNan) {
  // Seeded mutations of clean sweeps: reading values become NaN, +-inf or
  // +-1e308, sector IDs become ones the table does not know. Over every
  // selection path (batched argmax, the confidence mode's full surface,
  // the SNR-only ablation) nothing throws, and every valid selection has a
  // finite peak in [0, 1] and a direction on the search grid.
  const PatternTable table = synthetic_table();
  const AngularGrid grid = synthetic_grid();
  const int unknown_ids[] = {0, -1, 99, std::numeric_limits<int>::max()};
  CssConfig confidence = synthetic_config();
  confidence.compute_confidence = true;
  CssConfig snr_only = synthetic_config();
  snr_only.use_rssi = false;
  Rng rng(4242);
  std::size_t valid = 0;
  for (const CssConfig& config : {synthetic_config(), confidence, snr_only}) {
    const CompressiveSectorSelector css(table, config);
    CorrelationWorkspace ws;
    for (int batch = 0; batch < 40; ++batch) {
      std::vector<std::vector<SectorReading>> sweeps;
      for (int k = 0; k < 8; ++k) {
        const std::vector<int> picked = rng.sample_without_replacement(9, rng.uniform_int(1, 9));
        std::vector<int> sectors;
        for (int p : picked) sectors.push_back(p + 1);
        auto probes = ideal_probes(
            table, sectors, {rng.uniform(-60.0, 60.0), rng.uniform(0.0, 30.0)});
        for (SectorReading& r : probes) {
          switch (rng.uniform_int(0, 5)) {
            case 0: r.snr_db = kHostileValues[rng.uniform_int(0, 4)]; break;
            case 1: r.rssi_dbm = kHostileValues[rng.uniform_int(0, 4)]; break;
            case 2: r.sector_id = unknown_ids[rng.uniform_int(0, 3)]; break;
            default: break;  // left clean
          }
        }
        sweeps.push_back(std::move(probes));
      }
      const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
      std::vector<CssResult> results(sweeps.size());
      std::vector<std::optional<Direction>> directions(sweeps.size());
      ASSERT_NO_THROW(css.select_batch(views, css.assets()->tx_candidates(), results, ws));
      ASSERT_NO_THROW(css.estimate_directions(views, directions, ws));
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        if (directions[i]) {
          EXPECT_TRUE(on_grid(*directions[i], grid));
        }
        const CssResult& r = results[i];
        if (!r.valid) continue;
        ++valid;
        EXPECT_TRUE(std::isfinite(r.correlation_peak));
        EXPECT_GE(r.correlation_peak, 0.0);
        EXPECT_LE(r.correlation_peak, 1.0 + 1e-9);
        if (r.estimated_direction) {
          EXPECT_TRUE(on_grid(*r.estimated_direction, grid));
        }
      }
    }
  }
  EXPECT_GT(valid, 500u);
}

TEST(Css, MinProbesBelowTwoRejected) {
  CssConfig config = synthetic_config();
  config.min_probes = 1;
  EXPECT_THROW(CompressiveSectorSelector(synthetic_table(), config),
               PreconditionError);
}

}  // namespace
}  // namespace talon
