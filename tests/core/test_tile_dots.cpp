// The SIMD correlation kernel's three contracts, tested directly:
//
//   1. TileDots -- every compiled-in variant (scalar, AVX2, NEON) is
//      bit-identical on every input: random blocks, all M values
//      including the degenerate 1, duplicate rows, zero rows, and the
//      SNR-only (pr == nullptr) shape.
//   2. SimdDispatch -- the runtime dispatch honors the programmatic
//      override (clamped to the host), and the whole argmax-equals-
//      surface property holds with the scalar fallback forced, so the
//      suite pins correctness independently of the host CPU. (CI also
//      runs the full ctest suite under TALON_SIMD=scalar.)
//   3. QuantizedScreen -- on real cached panels the int16 sidecar's
//      dequantized statistics dominate the float statistics exactly
//      (q * scale >= u), and the quantized screening bound dominates the
//      float screening bound field for field, which is the soundness
//      argument that lets the argmax prune on 2-byte reads and stay
//      bit-identical to the full surface peak.
//
// Plus the batched argmax (one pyramid walk for K sweeps) against the
// single-sweep argmax, the SubsetPanel alignment contract on grids
// whose point count leaves every kind of ragged tail tile, and
// combined_surface's small-M one-shot policy (direct walk on first
// sighting, panel promotion on repeat).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/common/cpufeatures.hpp"
#include "src/core/correlation.hpp"
#include "src/core/response_matrix.hpp"
#include "src/core/tile_dots.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

constexpr std::size_t kTile = SubsetPanel::kTilePoints;

using AlignedBlock =
    std::vector<double, AlignedAllocator<double, SubsetPanel::kValuesAlignment>>;

/// A random tile block (M rows of kTilePoints), honoring the panel's
/// alignment contract. Values span signs and magnitudes; occasional
/// exact zeros mimic the padded ragged tail.
AlignedBlock random_block(std::mt19937_64& rng, std::size_t m) {
  std::uniform_real_distribution<double> value(-4.0, 4.0);
  std::uniform_int_distribution<int> zero(0, 9);
  AlignedBlock block(m * kTile);
  for (double& v : block) v = zero(rng) == 0 ? 0.0 : value(rng);
  return block;
}

std::vector<double> random_row(std::mt19937_64& rng, std::size_t m) {
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> row(m);
  for (double& v : row) v = value(rng);
  return row;
}

/// The independent reference a batched argmax member must match: the
/// full surface's peak (Grid2D::peak), ties to the lowest flat index.
CorrelationEngine::ArgmaxResult surface_peak(const CorrelationEngine& engine,
                                             std::span<const SectorReading> sweep) {
  const Grid2D w = engine.combined_surface(sweep);
  const Grid2D::Peak peak = w.peak();
  const auto it = std::max_element(w.values().begin(), w.values().end());
  return {static_cast<std::size_t>(it - w.values().begin()), peak.value,
          peak.direction};
}

void expect_rows_equal(const double* a, const double* b) {
  for (std::size_t g = 0; g < kTile; ++g) {
    EXPECT_EQ(a[g], b[g]) << "lane " << g;  // bit-identical, not approximate
  }
}

TEST(TileDots, AllVariantsBitIdenticalToScalarRandomized) {
  std::mt19937_64 rng(20260807);
  for (std::size_t m = 1; m <= 20; ++m) {
    for (int trial = 0; trial < 30; ++trial) {
      AlignedBlock block = random_block(rng, m);
      if (trial % 5 == 0 && m >= 2) {
        // Duplicate slots: the panel stores one row per sequence
        // position, so a duplicated probe is a duplicated row.
        std::copy_n(block.begin(), kTile, block.begin() + kTile);
      }
      const std::vector<double> ps = random_row(rng, m);
      const std::vector<double> pr = random_row(rng, m);

      std::vector<double> ref_s(kTile), ref_r(kTile);
      tile_dots_scalar(block.data(), ps.data(), pr.data(), m, ref_s.data(),
                       ref_r.data());

      // Deliberately unaligned outputs: only `block` carries the contract.
      std::vector<double> out_s(kTile + 1), out_r(kTile + 1);
#if defined(TALON_HAVE_AVX2_KERNEL)
      if (detected_simd_level() == SimdLevel::kAvx2) {
        tile_dots_avx2(block.data(), ps.data(), pr.data(), m, out_s.data() + 1,
                       out_r.data() + 1);
        expect_rows_equal(ref_s.data(), out_s.data() + 1);
        expect_rows_equal(ref_r.data(), out_r.data() + 1);
      }
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
      tile_dots_neon(block.data(), ps.data(), pr.data(), m, out_s.data() + 1,
                     out_r.data() + 1);
      expect_rows_equal(ref_s.data(), out_s.data() + 1);
      expect_rows_equal(ref_r.data(), out_r.data() + 1);
#endif
      // The dispatched entry point, whatever it resolved to.
      tile_dots(block.data(), ps.data(), pr.data(), m, out_s.data() + 1,
                out_r.data() + 1);
      expect_rows_equal(ref_s.data(), out_s.data() + 1);
      expect_rows_equal(ref_r.data(), out_r.data() + 1);
    }
  }
}

TEST(TileDots, SnrOnlyShapeBitIdentical) {
  std::mt19937_64 rng(99);
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{14}, std::size_t{17}}) {
    const AlignedBlock block = random_block(rng, m);
    const std::vector<double> ps = random_row(rng, m);
    std::vector<double> ref_s(kTile), out_s(kTile);
    tile_dots_scalar(block.data(), ps.data(), nullptr, m, ref_s.data(), nullptr);
#if defined(TALON_HAVE_AVX2_KERNEL)
    if (detected_simd_level() == SimdLevel::kAvx2) {
      tile_dots_avx2(block.data(), ps.data(), nullptr, m, out_s.data(), nullptr);
      expect_rows_equal(ref_s.data(), out_s.data());
    }
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
    tile_dots_neon(block.data(), ps.data(), nullptr, m, out_s.data(), nullptr);
    expect_rows_equal(ref_s.data(), out_s.data());
#endif
    tile_dots(block.data(), ps.data(), nullptr, m, out_s.data(), nullptr);
    expect_rows_equal(ref_s.data(), out_s.data());
  }
}

// --- runtime dispatch -------------------------------------------------------

/// Pins the scalar fallback for the fixture's lifetime and restores the
/// ambient dispatch afterwards, so ordering against other tests cannot
/// leak the override.
class ForcedScalarDispatch : public ::testing::Test {
 protected:
  void SetUp() override { set_simd_level_override(SimdLevel::kScalar); }
  void TearDown() override { clear_simd_level_override(); }
};

TEST_F(ForcedScalarDispatch, OverrideWinsRegardlessOfHost) {
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
}

TEST(SimdDispatch, OverrideClampsToDetectedLevel) {
  // Requesting a level the host lacks must not dispatch to it.
  set_simd_level_override(SimdLevel::kAvx2);
  const SimdLevel level = tile_dots_dispatch_level();
  if (detected_simd_level() != SimdLevel::kAvx2) {
    EXPECT_NE(level, SimdLevel::kAvx2);
  }
  clear_simd_level_override();
}

TEST_F(ForcedScalarDispatch, ArgmaxEqualsSurfaceOnScalarFallback) {
  // The argmax-equals-surface property, re-run with the scalar kernel
  // pinned: correctness must not depend on which variant the host
  // happens to dispatch (the full suite runs under TALON_SIMD=scalar in
  // CI as well).
  ASSERT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<int> ids(count(rng));
    for (int& id : ids) id = sector(rng);
    auto probes = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
    for (SectorReading& r : probes) {
      r.snr_db += noise(rng);
      r.rssi_dbm += noise(rng);
    }
    const Grid2D w = engine.combined_surface(probes);
    const auto it = std::max_element(w.values().begin(), w.values().end());
    const auto fast = engine.combined_argmax(probes, ws);
    EXPECT_EQ(fast.index,
              static_cast<std::size_t>(it - w.values().begin()));
    EXPECT_EQ(fast.value, *it);
  }
}

// --- quantized screening soundness ------------------------------------------

TEST(QuantizedScreen, SidecarDominatesFloatStatisticsExactly) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const ResponseMatrix& matrix = engine.response_matrix();
  const auto probes =
      ideal_probes(synthetic_table(), {1, 2, 4, 5, 7, 8, 9}, {-12.0, 10.0});
  const ProbeVectors pv = engine.collect_probes(probes, true, true);
  const auto pan = matrix.panel(pv.slots);
  const std::size_t m = pan->m();
  ASSERT_EQ(pan->fine_q.size(), pan->fine_abs_norm_max.size());
  ASSERT_EQ(pan->fine_q_scale.size(), pan->fine_tiles);
  ASSERT_EQ(pan->coarse_q.size(), pan->coarse_abs_norm_max.size());
  ASSERT_EQ(pan->coarse_q_scale.size(), pan->coarse_tiles);
  for (std::size_t t = 0; t < pan->fine_tiles; ++t) {
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double u = pan->fine_abs_norm_max[t * m + mm];
      const double dq = static_cast<double>(pan->fine_q[t * m + mm]) *
                        pan->fine_q_scale[t];
      EXPECT_GE(dq, u);  // exact round-up: the product is exact in double
    }
  }
  for (std::size_t c = 0; c < pan->coarse_tiles; ++c) {
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double u = pan->coarse_abs_norm_max[c * m + mm];
      const double dq = static_cast<double>(pan->coarse_q[c * m + mm]) *
                        pan->coarse_q_scale[c];
      EXPECT_GE(dq, u);
    }
  }
}

TEST(QuantizedScreen, QuantizedBoundNeverUndershootsFloatBound) {
  // The property the pruning soundness rests on: for random probe
  // vectors over real panels, the int16 screening bound dominates the
  // float screening bound on every tile, in every field the walk prunes
  // with. An undershoot anywhere could cut the tile holding the true
  // peak.
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    const CorrelationEngine engine(synthetic_table(), synthetic_grid(), domain);
    const ResponseMatrix& matrix = engine.response_matrix();
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<int> ids(count(rng));
      for (int& id : ids) id = sector(rng);
      auto probes = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
      for (SectorReading& r : probes) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      const ProbeVectors pv = engine.collect_probes(probes, true, true);
      const std::size_t m = pv.slots.size();
      double snr_sq = 0.0, rssi_sq = 0.0;
      std::vector<double> abs_ps(m), abs_pr(m);
      for (std::size_t mm = 0; mm < m; ++mm) {
        snr_sq += pv.snr[mm] * pv.snr[mm];
        rssi_sq += pv.rssi[mm] * pv.rssi[mm];
        abs_ps[mm] = std::abs(pv.snr[mm]);
        abs_pr[mm] = std::abs(pv.rssi[mm]);
      }
      if (snr_sq <= 0.0 || rssi_sq <= 0.0) continue;
      const double inv_snr = 1.0 / std::sqrt(snr_sq);
      const double inv_rssi = 1.0 / std::sqrt(rssi_sq);
      const auto pan = matrix.panel(pv.slots);
      for (std::size_t t = 0; t < pan->fine_tiles; ++t) {
        const detail::TileScreen f = detail::screen_tile_float(
            abs_ps.data(), abs_pr.data(), pan->fine_abs_norm_max.data() + t * m,
            pan->fine_sqrt_min_norm[t], m, inv_snr, inv_rssi);
        const detail::TileScreen q = detail::screen_tile_q(
            abs_ps.data(), abs_pr.data(), pan->fine_q.data() + t * m,
            pan->fine_q_scale[t], pan->fine_sqrt_min_norm[t], m, inv_snr,
            inv_rssi);
        EXPECT_GE(q.bound, f.bound);
        EXPECT_GE(q.rs, f.rs);
        EXPECT_GE(q.cr2, f.cr2);
      }
      for (std::size_t c = 0; c < pan->coarse_tiles; ++c) {
        const detail::TileScreen f = detail::screen_tile_float(
            abs_ps.data(), abs_pr.data(),
            pan->coarse_abs_norm_max.data() + c * m, pan->coarse_sqrt_min_norm[c],
            m, inv_snr, inv_rssi);
        const detail::TileScreen q = detail::screen_tile_q(
            abs_ps.data(), abs_pr.data(), pan->coarse_q.data() + c * m,
            pan->coarse_q_scale[c], pan->coarse_sqrt_min_norm[c], m, inv_snr,
            inv_rssi);
        EXPECT_GE(q.bound, f.bound);
        EXPECT_GE(q.rs, f.rs);
        EXPECT_GE(q.cr2, f.cr2);
      }
    }
  }
}

// --- panel alignment / ragged tails -----------------------------------------

TEST(PanelAlignment, EveryTileRowHonorsTheAlignmentContract) {
  // Search grids chosen so points % kTilePoints covers sparse tails (the
  // sizes that break lane-count assumptions: 1 short of a tile, inside
  // the first SIMD pass, between passes).
  const std::vector<AngularGrid> grids{
      synthetic_grid(),                                            // 287 = 8*32 + 31
      {make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 0.0, 5.0)},     // 41 = 32 + 9
      {make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 15.0, 5.0)},    // 164 = 5*32 + 4
      {make_axis(-48.0, 48.0, 3.0), make_axis(0.0, 0.0, 5.0)},     // 33 = 32 + 1
  };
  for (const AngularGrid& grid : grids) {
    const CorrelationEngine engine(synthetic_table(), grid);
    const auto probes =
        ideal_probes(synthetic_table(), {2, 3, 5, 8, 9}, {0.0, 10.0});
    const ProbeVectors pv = engine.collect_probes(probes, true, true);
    const auto pan = engine.response_matrix().panel(pv.slots);
    const std::size_t m = pan->m();
    ASSERT_GT(pan->fine_tiles, 0u);
    for (std::size_t t = 0; t < pan->fine_tiles; ++t) {
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double* row = pan->tile_values(t) + mm * kTile;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) %
                      SubsetPanel::kValuesAlignment,
                  0u)
            << "tile " << t << " row " << mm;
      }
    }
    // The ragged tail is zero-padded beyond `points`.
    const std::size_t tail = pan->points % kTile;
    if (tail != 0) {
      const double* last = pan->tile_values(pan->fine_tiles - 1);
      for (std::size_t mm = 0; mm < m; ++mm) {
        for (std::size_t g = tail; g < kTile; ++g) {
          EXPECT_EQ(last[mm * kTile + g], 0.0);
        }
      }
    }
  }
}

TEST(PanelAlignment, RaggedTailGridsKeepArgmaxExact) {
  // End-to-end on the same tail shapes: the argmax (SIMD kernels +
  // quantized screening + small-M direct path all in play) must still
  // equal the surface peak bit for bit.
  std::mt19937_64 rng(2468);
  std::uniform_real_distribution<double> noise(-1.5, 1.5);
  for (const AngularGrid& grid :
       {AngularGrid{make_axis(-48.0, 48.0, 3.0), make_axis(0.0, 0.0, 5.0)},
        AngularGrid{make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 15.0, 5.0)}}) {
    const CorrelationEngine engine(synthetic_table(), grid);
    CorrelationWorkspace ws;
    for (int trial = 0; trial < 25; ++trial) {
      auto probes = ideal_probes(synthetic_table(),
                                 {1, 2, 3, 5, 6, 8}, {-10.0 + trial, 5.0});
      for (SectorReading& r : probes) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      const Grid2D w = engine.combined_surface(probes);
      const auto it = std::max_element(w.values().begin(), w.values().end());
      const auto fast = engine.combined_argmax(probes, ws);
      EXPECT_EQ(fast.index, static_cast<std::size_t>(it - w.values().begin()));
      EXPECT_EQ(fast.value, *it);
    }
  }
}

// --- batched argmax ---------------------------------------------------------

TEST(ArgmaxBatch, BitIdenticalToSingleSweepAcrossGroupings) {
  // Random batches mixing repeated slot sequences (grouped into one
  // pyramid walk) with singletons, duplicates and noise, in both
  // domains: every member's result must equal the peak of its own full
  // surface bit for bit -- grouping is a speed decision, never a result
  // decision.
  std::mt19937_64 rng(13579);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  std::uniform_int_distribution<int> shape(0, 3);
  const std::vector<std::vector<int>> shared_shapes{
      {1, 3, 5, 7, 9}, {2, 4, 6, 8}, {4, 4, 2}};
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    const CorrelationEngine engine(synthetic_table(), synthetic_grid(), domain);
    CorrelationWorkspace batch_ws;
    for (int trial = 0; trial < 20; ++trial) {
      std::uniform_int_distribution<std::size_t> batch_size(1, 12);
      const std::size_t k = batch_size(rng);
      std::vector<std::vector<SectorReading>> sweeps(k);
      for (auto& sweep : sweeps) {
        std::vector<int> ids;
        const int s = shape(rng);
        if (s < 3) {
          ids = shared_shapes[static_cast<std::size_t>(s)];
        } else {
          ids.resize(count(rng));
          for (int& id : ids) id = sector(rng);
        }
        sweep = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
        for (SectorReading& r : sweep) {
          r.snr_db += noise(rng);
          r.rssi_dbm += noise(rng);
        }
      }
      std::vector<std::span<const SectorReading>> views(sweeps.begin(),
                                                        sweeps.end());
      std::vector<CorrelationEngine::ArgmaxResult> batched(k);
      engine.combined_argmax_batch(views, batched, batch_ws);
      for (std::size_t i = 0; i < k; ++i) {
        const auto peak = surface_peak(engine, sweeps[i]);
        EXPECT_EQ(batched[i].index, peak.index) << "member " << i;
        EXPECT_EQ(batched[i].value, peak.value) << "member " << i;
        EXPECT_EQ(batched[i].direction.azimuth_deg, peak.direction.azimuth_deg);
        EXPECT_EQ(batched[i].direction.elevation_deg,
                  peak.direction.elevation_deg);
      }
    }
  }
}

TEST(ArgmaxBatch, SteadyStateStopsGrowing) {
  // Stable batch shapes must go allocation-quiet like the single-sweep
  // workspace contract: K links re-probing their subsets round after
  // round is THE steady state the dense simulator runs in.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::mt19937_64 rng(24680);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  const std::vector<std::vector<int>> shapes{
      {1, 3, 5, 7}, {1, 3, 5, 7}, {2, 4, 6, 8, 9}, {1, 3, 5, 7}};
  auto make_sweeps = [&] {
    std::vector<std::vector<SectorReading>> sweeps;
    for (const auto& ids : shapes) {
      auto sweep = ideal_probes(synthetic_table(), ids, {5.0, 10.0});
      for (SectorReading& r : sweep) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      sweeps.push_back(std::move(sweep));
    }
    return sweeps;
  };
  std::vector<CorrelationEngine::ArgmaxResult> out(shapes.size());
  for (int warm = 0; warm < 3; ++warm) {
    const auto sweeps = make_sweeps();
    std::vector<std::span<const SectorReading>> views(sweeps.begin(),
                                                      sweeps.end());
    engine.combined_argmax_batch(views, out, ws);
  }
  const std::size_t settled = ws.growth_events();
  for (int i = 0; i < 100; ++i) {
    const auto sweeps = make_sweeps();
    std::vector<std::span<const SectorReading>> views(sweeps.begin(),
                                                      sweeps.end());
    engine.combined_argmax_batch(views, out, ws);
  }
  EXPECT_EQ(ws.growth_events(), settled);
}

TEST_F(ForcedScalarDispatch, BatchBitIdenticalOnScalarFallback) {
  // Batch-vs-surface equality re-checked with the scalar kernel pinned.
  ASSERT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::vector<std::vector<SectorReading>> sweeps;
  for (int i = 0; i < 6; ++i) {
    sweeps.push_back(ideal_probes(synthetic_table(), {1, 2, 5, 8},
                                  {-30.0 + 10.0 * i, 5.0}));
  }
  std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<CorrelationEngine::ArgmaxResult> out(sweeps.size());
  engine.combined_argmax_batch(views, out, ws);
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const auto peak = surface_peak(engine, sweeps[i]);
    EXPECT_EQ(out[i].index, peak.index);
    EXPECT_EQ(out[i].value, peak.value);
  }
}

TEST(DirectSurface, OneShotWalksDirectRepeatPromotesToPanel) {
  // combined_surface's small-M policy: the first sighting of a subset
  // walks the matrix directly without paying a panel build, the second
  // sighting promotes it to a cached panel (repeated callers converge
  // onto the compacted SIMD tile walk) -- and every call returns the
  // same bits either way.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const auto probes =
      ideal_probes(synthetic_table(), {1, 3, 5, 8}, {-10.0, 5.0});
  ASSERT_LE(engine.collect_probes(probes, true, true).slots.size(), 8u);

  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 0u);
  const Grid2D direct = engine.combined_surface(probes);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 0u)
      << "first sighting must not build a panel";
  const Grid2D promoted = engine.combined_surface(probes);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 1u)
      << "second sighting must build and cache the panel";
  const Grid2D tiled = engine.combined_surface(probes);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 1u);

  ASSERT_EQ(direct.values().size(), tiled.values().size());
  for (std::size_t i = 0; i < direct.values().size(); ++i) {
    EXPECT_EQ(direct.values()[i], promoted.values()[i]) << i;
    EXPECT_EQ(direct.values()[i], tiled.values()[i]) << i;
  }
}

TEST(DirectSurface, PanelAlreadyCachedSkipsTheDirectWalk) {
  // A subset some other path already compacted (here: the argmax
  // workspace, whose repeated sequence enters the cache) goes straight to
  // the tile walk -- same bits, and no sighting is recorded.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const auto probes =
      ideal_probes(synthetic_table(), {2, 4, 6, 9}, {15.0, 10.0});
  CorrelationWorkspace ws;
  (void)engine.combined_argmax(probes, ws);  // first sighting: scratch panel
  (void)engine.combined_argmax(probes, ws);  // repeat: promotes + caches it
  const std::size_t cached = engine.response_matrix().cached_subset_count();
  EXPECT_GE(cached, 1u);
  const Grid2D surface = engine.combined_surface(probes);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), cached);
  const auto peak = engine.combined_argmax(probes, ws);
  EXPECT_EQ(surface.values()[peak.index], peak.value);
}

}  // namespace
}  // namespace talon
