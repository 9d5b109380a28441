// ResponseMatrix: the grid-point-major data layer under every correlation
// pass. Pins down the SoA layout against the pattern table, the direction
// table's ordering, slot lookup, the per-subset norm cache semantics
// (sequence-keyed, duplicate-preserving, bit-identical on hits), the fused
// panel build against a point-major reference, and the retention contract
// (one-shot sequences use a scratch panel; only repeats are cached).
#include "src/core/response_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <thread>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/correlation.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

TEST(ResponseMatrix, LayoutMatchesPatternTableSamples) {
  const PatternTable table = synthetic_table();
  const AngularGrid grid = synthetic_grid();
  const ResponseMatrix db(table, grid, CorrelationDomain::kDb);
  const ResponseMatrix lin(table, grid, CorrelationDomain::kLinear);
  ASSERT_EQ(db.points(), grid.size());
  ASSERT_EQ(db.slots(), table.ids().size());
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      const std::size_t g = grid.index(ia, ie);
      const std::span<const double> db_row = db.point(g);
      const std::span<const double> lin_row = lin.point(g);
      ASSERT_EQ(db_row.size(), db.slots());
      for (std::size_t s = 0; s < db.slots(); ++s) {
        const double expected =
            table.sample_db(db.sector_ids()[s], grid.direction(ia, ie));
        EXPECT_DOUBLE_EQ(db_row[s], expected);
        EXPECT_DOUBLE_EQ(lin_row[s], db_to_linear(expected));
      }
    }
  }
}

TEST(ResponseMatrix, DirectionsFollowGridIndexOrder) {
  const AngularGrid grid = synthetic_grid();
  const ResponseMatrix matrix(synthetic_table(), grid, CorrelationDomain::kLinear);
  const std::vector<Direction>& dirs = matrix.directions();
  ASSERT_EQ(dirs.size(), grid.size());
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      const Direction expected = grid.direction(ia, ie);
      const Direction actual = dirs[grid.index(ia, ie)];
      EXPECT_DOUBLE_EQ(actual.azimuth_deg, expected.azimuth_deg);
      EXPECT_DOUBLE_EQ(actual.elevation_deg, expected.elevation_deg);
    }
  }
}

TEST(ResponseMatrix, SlotLookup) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  for (std::size_t s = 0; s < matrix.slots(); ++s) {
    EXPECT_EQ(matrix.slot(matrix.sector_ids()[s]), static_cast<int>(s));
  }
  EXPECT_EQ(matrix.slot(99), -1);
  EXPECT_EQ(matrix.slot(-1), -1);
}

TEST(ResponseMatrix, NormCacheHitReturnsSameVector) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  const std::vector<int> subset{0, 2, 4};
  const auto first = matrix.norms_sq(subset);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
  const auto second = matrix.norms_sq(subset);
  // A hit returns the cached vector itself: bit-identical by construction.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
}

TEST(ResponseMatrix, NormCacheKeyIsTheSequenceNotTheSet) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> forward{0, 2, 4};
  const std::vector<int> reversed{4, 2, 0};
  const auto a = matrix.norms_sq(forward);
  const auto b = matrix.norms_sq(reversed);
  // Distinct keys (a different reading order accumulates in a different
  // order), even though the mathematical sums agree.
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(matrix.cached_subset_count(), 2u);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_NEAR((*a)[g], (*b)[g], 1e-12);
  }
}

TEST(ResponseMatrix, DuplicateSlotsContributeOncePerOccurrence) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> once{3};
  const std::vector<int> twice{3, 3};
  const auto single = matrix.norms_sq(once);
  const auto doubled = matrix.norms_sq(twice);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_DOUBLE_EQ((*doubled)[g], 2.0 * (*single)[g]);
  }
}

TEST(ResponseMatrix, NormsMatchDirectSum) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 5, 7};
  const auto norms = matrix.norms_sq(subset);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    const std::span<const double> row = matrix.point(g);
    double expected = 0.0;
    for (int s : subset) expected += row[s] * row[s];
    EXPECT_DOUBLE_EQ((*norms)[g], expected);
  }
}

// --- subset panels: the compacted tile-blocked view -----------------------

TEST(ResponseMatrix, PanelValuesMatchPointRows) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 4, 4, 7};  // duplicate kept per occurrence
  const auto panel = matrix.panel(subset);
  ASSERT_EQ(panel->points, matrix.points());
  ASSERT_EQ(panel->m(), subset.size());
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  ASSERT_EQ(panel->fine_tiles, (matrix.points() + kTile - 1) / kTile);
  ASSERT_EQ(panel->coarse_tiles,
            (panel->fine_tiles + SubsetPanel::kFinePerCoarse - 1) /
                SubsetPanel::kFinePerCoarse);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    const std::span<const double> row = matrix.point(g);
    const double* block = panel->tile_values(g / kTile);
    for (std::size_t mm = 0; mm < subset.size(); ++mm) {
      EXPECT_EQ(block[mm * kTile + g % kTile],
                row[static_cast<std::size_t>(subset[mm])])
          << "g=" << g << " m=" << mm;
    }
  }
  // The ragged tail tile is zero-padded past `points`.
  const std::size_t tail = panel->fine_tiles - 1;
  const double* tail_block = panel->tile_values(tail);
  for (std::size_t gi = matrix.points() - tail * kTile; gi < kTile; ++gi) {
    for (std::size_t mm = 0; mm < subset.size(); ++mm) {
      EXPECT_EQ(tail_block[mm * kTile + gi], 0.0);
    }
  }
}

TEST(ResponseMatrix, PanelTileStatisticsBoundTheTile) {
  // fine_abs_norm_max must be the exact per-slot max of |x_m(g)|/||x(g)||
  // over the tile's positive-norm points, and fine_sqrt_min_norm the exact
  // sqrt of the minimum positive norm -- the argmax's pruning bound is only
  // rigorous if these dominate every point they summarize.
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{0, 2, 5};
  const auto panel = matrix.panel(subset);
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = subset.size();
  for (std::size_t t = 0; t < panel->fine_tiles; ++t) {
    const std::size_t g0 = t * kTile;
    const std::size_t count = std::min(kTile, matrix.points() - g0);
    std::vector<double> u(m, 0.0);
    double min_norm = std::numeric_limits<double>::infinity();
    for (std::size_t gi = 0; gi < count; ++gi) {
      const double n = panel->norms_sq[g0 + gi];
      if (n <= 0.0) continue;
      min_norm = std::min(min_norm, n);
      const double inv_norm = 1.0 / std::sqrt(n);
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double x = matrix.point(g0 + gi)[static_cast<std::size_t>(subset[mm])];
        u[mm] = std::max(u[mm], std::abs(x) * inv_norm);
      }
    }
    for (std::size_t mm = 0; mm < m; ++mm) {
      EXPECT_EQ(panel->fine_abs_norm_max[t * m + mm], u[mm]) << "tile " << t;
    }
    EXPECT_EQ(panel->fine_sqrt_min_norm[t], std::sqrt(min_norm)) << "tile " << t;
  }
  // Coarse aggregates dominate their fine tiles.
  for (std::size_t c = 0; c < panel->coarse_tiles; ++c) {
    const std::size_t t0 = c * SubsetPanel::kFinePerCoarse;
    const std::size_t t1 = std::min(t0 + SubsetPanel::kFinePerCoarse,
                                    panel->fine_tiles);
    for (std::size_t t = t0; t < t1; ++t) {
      for (std::size_t mm = 0; mm < m; ++mm) {
        EXPECT_GE(panel->coarse_abs_norm_max[c * m + mm],
                  panel->fine_abs_norm_max[t * m + mm]);
      }
      EXPECT_LE(panel->coarse_sqrt_min_norm[c], panel->fine_sqrt_min_norm[t]);
    }
  }
}

TEST(ResponseMatrix, NormsAliasTheCachedPanel) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 3, 5};
  const auto panel = matrix.panel(subset);
  const auto norms = matrix.norms_sq(subset);
  // One cache entry serves both views: norms_sq aliases the panel's array.
  EXPECT_EQ(norms.get(), &panel->norms_sq);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
}

TEST(ResponseMatrix, CacheStatsCountHitsAndMisses) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_EQ(matrix.cache_stats().hits, 0u);
  EXPECT_EQ(matrix.cache_stats().misses, 0u);
  const std::vector<int> a{0, 1, 2};
  const std::vector<int> b{2, 1, 0};
  matrix.panel(a);  // miss
  matrix.panel(a);  // hit
  matrix.panel(b);  // miss (sequence-keyed)
  matrix.norms_sq(a);  // hit through the norms view
  const ResponseMatrix::CacheStats stats = matrix.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(ResponseMatrix, PanelSlotOutOfRangeThrows) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_THROW(matrix.panel(std::vector<int>{0, 99}), PreconditionError);
  EXPECT_THROW(matrix.panel(std::vector<int>{-1}), PreconditionError);
  EXPECT_THROW(matrix.panel(std::vector<int>{}), PreconditionError);
}

TEST(ResponseMatrixPanelCache, ConcurrentReadersShareOneBuild) {
  // K threads hammer the same subset plus a per-thread one: the shared
  // cache must serve every reader the same panel object without tearing
  // (TSan covers the lock discipline; this pins the sharing semantics).
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> shared_subset{1, 2, 3, 4};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const SubsetPanel>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<int> own{i, (i + 1) % 9};
      for (int round = 0; round < 50; ++round) {
        seen[i] = matrix.panel(shared_subset);
        matrix.panel(own);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
  const ResponseMatrix::CacheStats stats = matrix.cache_stats();
  // 8 distinct per-thread subsets + the shared one were built at least
  // once each; everything else hit.
  EXPECT_GE(stats.hits, 8u * 50u);
  EXPECT_EQ(matrix.cached_subset_count(), 9u);
}

// --- fused build: byte-identical to a point-major reference --------------

/// The int16 sidecar rule, restated: largest power-of-two scale resolving
/// the row maximum in <= 15 bits, levels rounded up.
double reference_quantize(const double* u, std::size_t m, std::uint16_t* q) {
  double u_max = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) u_max = std::max(u_max, u[mm]);
  if (u_max <= 0.0) {
    std::fill(q, q + m, std::uint16_t{0});
    return 0.0;
  }
  int exp = 0;
  (void)std::frexp(u_max, &exp);
  const double inv_scale = std::ldexp(1.0, 15 - exp);
  for (std::size_t mm = 0; mm < m; ++mm) {
    q[mm] = static_cast<std::uint16_t>(std::ceil(u[mm] * inv_scale));
  }
  return std::ldexp(1.0, exp - 15);
}

/// The straightforward build: one point at a time, each point's norm
/// summed in sequence order, zero-norm points skipped by the statistics.
SubsetPanel reference_panel(const ResponseMatrix& matrix, const std::vector<int>& slots) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = slots.size();
  SubsetPanel p;
  p.slots = slots;
  p.points = matrix.points();
  p.fine_tiles = (p.points + kTile - 1) / kTile;
  p.coarse_tiles =
      (p.fine_tiles + SubsetPanel::kFinePerCoarse - 1) / SubsetPanel::kFinePerCoarse;
  p.values.assign(p.fine_tiles * kTile * m, 0.0);
  p.norms_sq.resize(p.points);
  for (std::size_t g = 0; g < p.points; ++g) {
    double sum = 0.0;
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double x = matrix.point(g)[static_cast<std::size_t>(slots[mm])];
      p.values[((g / kTile) * m + mm) * kTile + g % kTile] = x;
      sum += x * x;
    }
    p.norms_sq[g] = sum;
  }
  p.fine_abs_norm_max.assign(p.fine_tiles * m, 0.0);
  p.fine_sqrt_min_norm.resize(p.fine_tiles);
  for (std::size_t t = 0; t < p.fine_tiles; ++t) {
    double min_pos = kInf;
    for (std::size_t g = t * kTile; g < std::min(p.points, (t + 1) * kTile); ++g) {
      const double n = p.norms_sq[g];
      if (n <= 0.0) continue;
      min_pos = std::min(min_pos, n);
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double x = matrix.point(g)[static_cast<std::size_t>(slots[mm])];
        const double share = std::abs(x) * (1.0 / std::sqrt(n));
        if (share > p.fine_abs_norm_max[t * m + mm]) p.fine_abs_norm_max[t * m + mm] = share;
      }
    }
    p.fine_sqrt_min_norm[t] = min_pos == kInf ? kInf : std::sqrt(min_pos);
  }
  p.coarse_abs_norm_max.assign(p.coarse_tiles * m, 0.0);
  p.coarse_sqrt_min_norm.assign(p.coarse_tiles, kInf);
  for (std::size_t t = 0; t < p.fine_tiles; ++t) {
    const std::size_t c = t / SubsetPanel::kFinePerCoarse;
    for (std::size_t mm = 0; mm < m; ++mm) {
      p.coarse_abs_norm_max[c * m + mm] =
          std::max(p.coarse_abs_norm_max[c * m + mm], p.fine_abs_norm_max[t * m + mm]);
    }
    p.coarse_sqrt_min_norm[c] = std::min(p.coarse_sqrt_min_norm[c], p.fine_sqrt_min_norm[t]);
  }
  p.fine_q.resize(p.fine_tiles * m);
  p.fine_q_scale.resize(p.fine_tiles);
  for (std::size_t t = 0; t < p.fine_tiles; ++t) {
    p.fine_q_scale[t] =
        reference_quantize(&p.fine_abs_norm_max[t * m], m, &p.fine_q[t * m]);
  }
  p.coarse_q.resize(p.coarse_tiles * m);
  p.coarse_q_scale.resize(p.coarse_tiles);
  for (std::size_t c = 0; c < p.coarse_tiles; ++c) {
    p.coarse_q_scale[c] =
        reference_quantize(&p.coarse_abs_norm_max[c * m], m, &p.coarse_q[c * m]);
  }
  return p;
}

template <typename Vec>
bool same_bytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

void expect_identical(const SubsetPanel& got, const SubsetPanel& want) {
  EXPECT_EQ(got.slots, want.slots);
  EXPECT_EQ(got.points, want.points);
  EXPECT_EQ(got.fine_tiles, want.fine_tiles);
  EXPECT_EQ(got.coarse_tiles, want.coarse_tiles);
  EXPECT_TRUE(same_bytes(got.values, want.values)) << "values, M=" << want.m();
  EXPECT_TRUE(same_bytes(got.norms_sq, want.norms_sq)) << "norms_sq, M=" << want.m();
  EXPECT_TRUE(same_bytes(got.fine_abs_norm_max, want.fine_abs_norm_max));
  EXPECT_TRUE(same_bytes(got.fine_sqrt_min_norm, want.fine_sqrt_min_norm));
  EXPECT_TRUE(same_bytes(got.coarse_abs_norm_max, want.coarse_abs_norm_max));
  EXPECT_TRUE(same_bytes(got.coarse_sqrt_min_norm, want.coarse_sqrt_min_norm));
  EXPECT_TRUE(same_bytes(got.fine_q, want.fine_q));
  EXPECT_TRUE(same_bytes(got.fine_q_scale, want.fine_q_scale));
  EXPECT_TRUE(same_bytes(got.coarse_q, want.coarse_q));
  EXPECT_TRUE(same_bytes(got.coarse_q_scale, want.coarse_q_scale));
}

/// 36 lobed sectors on the synthetic grid (287 points: the last fine tile
/// is ragged), with the first three azimuth columns dead in every sector
/// (zero response: zero-norm points) and the next column so weak that
/// x != 0 but x * x underflows to 0 (a zero norm over non-zero values).
PatternTable oracle_table(CorrelationDomain domain) {
  const AngularGrid grid = synthetic_grid();
  const bool linear = domain == CorrelationDomain::kLinear;
  const double dead_db = linear ? -4000.0 : 0.0;
  const double faint_db = linear ? -2000.0 : 1e-170;
  PatternTable table;
  for (int id = 1; id <= 36; ++id) {
    const testutil::Lobe lobe{id, {-60.0 + 3.4 * id, (id % 4) * 8.0}, 8.0 + id % 5,
                              16.0 + id % 7};
    Grid2D pattern = testutil::lobe_pattern(grid, lobe);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < 4; ++ia) pattern.set(ia, ie, ia < 3 ? dead_db : faint_db);
    }
    table.add(id, std::move(pattern));
  }
  return table;
}

TEST(PanelBuild, ByteIdenticalToPointMajorReference) {
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    const ResponseMatrix matrix(oracle_table(domain), synthetic_grid(), domain);
    ASSERT_NE(matrix.points() % SubsetPanel::kTilePoints, 0u) << "needs a ragged tail";
    std::mt19937 rng(domain == CorrelationDomain::kLinear ? 71 : 72);
    std::uniform_int_distribution<int> pick(0, static_cast<int>(matrix.slots()) - 1);
    bool saw_zero_norm = false;
    bool saw_underflowed_norm = false;
    // Up then down, so the reused scratch panel both grows and shrinks.
    std::vector<std::size_t> sizes;
    for (std::size_t m = 1; m <= 34; ++m) sizes.push_back(m);
    for (std::size_t m = 34; m >= 1; --m) sizes.push_back(m);
    std::set<std::vector<int>> seen;
    for (const std::size_t m : sizes) {
      std::vector<int> slots(m);
      do {
        for (int& s : slots) s = pick(rng);
        if (m >= 3) slots[m - 1] = slots[0];  // a duplicate slot
      } while (!seen.insert(slots).second);
      const SubsetPanel want = reference_panel(matrix, slots);
      for (std::size_t g = 0; g < want.points; ++g) {
        if (want.norms_sq[g] != 0.0) continue;
        saw_zero_norm = true;
        saw_underflowed_norm |= matrix.point(g)[static_cast<std::size_t>(slots[0])] != 0.0;
      }
      const ResponseMatrix::Lease scratch = matrix.lease(slots);
      ASSERT_FALSE(scratch.cached) << "a first sighting must use the scratch panel";
      expect_identical(*scratch.panel, want);
      expect_identical(*matrix.panel(slots), want);  // the cached build
    }
    EXPECT_TRUE(saw_zero_norm);
    EXPECT_TRUE(saw_underflowed_norm);
  }
}

TEST(PanelBuild, ScratchAndCachedPanelsGiveTheSameResults) {
  // The same sweeps through a cold engine (scratch panels) and through
  // an engine whose cache holds the panels: identical argmax, surface
  // and batch-surface bits.
  // One cold engine per evaluator, so each sees every sequence once.
  const CorrelationEngine cold_argmax(synthetic_table(), synthetic_grid());
  const CorrelationEngine cold_surface(synthetic_table(), synthetic_grid());
  const CorrelationEngine cold_batch(synthetic_table(), synthetic_grid());
  const CorrelationEngine warm(synthetic_table(), synthetic_grid());
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_real_distribution<double> az(-55.0, 55.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int> ids(static_cast<std::size_t>(9 + trial));  // M > 8: tiled surface
    for (int& id : ids) id = sector(rng);
    const auto probes = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
    const std::vector<int> slots = warm.collect_probes(probes, true, true).slots;
    (void)warm.response_matrix().panel(slots);

    CorrelationWorkspace cold_ws;
    CorrelationWorkspace warm_ws;
    const ArgmaxResult a = cold_argmax.combined_argmax(probes, cold_ws);
    const ArgmaxResult b = warm.combined_argmax(probes, warm_ws);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.value, b.value);
    const std::span<const SectorReading> view(probes);
    const Grid2D sa = cold_surface.combined_surface(probes);
    const Grid2D sb = warm.combined_surface(probes);
    const std::vector<Grid2D> ba = cold_batch.combined_surface_batch(std::span(&view, 1));
    EXPECT_TRUE(same_bytes(sa.values(), sb.values())) << "trial " << trial;
    EXPECT_TRUE(same_bytes(ba[0].values(), sb.values())) << "trial " << trial;
    EXPECT_EQ(sa.values()[a.index], a.value);
  }
  for (const CorrelationEngine* cold : {&cold_argmax, &cold_surface, &cold_batch}) {
    EXPECT_EQ(cold->response_matrix().cached_subset_count(), 0u);
  }
}

// --- retention: only repeated slot sequences enter the shared cache -------

/// Distinct random slot sequences' sweeps over the synthetic table.
std::vector<std::vector<SectorReading>> distinct_sweeps(std::size_t count,
                                                        std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> size(3, 9);
  std::set<std::vector<int>> seen;
  std::vector<std::vector<SectorReading>> out;
  while (out.size() < count) {
    std::vector<int> ids{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(static_cast<std::size_t>(size(rng)));
    if (!seen.insert(ids).second) continue;
    out.push_back(ideal_probes(synthetic_table(), ids, {-20.0 + out.size() % 40, 10.0}));
  }
  return out;
}

TEST(PanelRetention, OneShotSubsetsRetainNothing) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  const auto sweeps = distinct_sweeps(300, 17);
  for (const auto& sweep : sweeps) (void)engine.combined_argmax(sweep, ws);
  const ResponseMatrix& matrix = engine.response_matrix();
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  EXPECT_EQ(matrix.cache_stats().misses, sweeps.size()) << "one build per sweep";
  EXPECT_EQ(matrix.cache_stats().hits, 0u);
}

TEST(PanelRetention, SameWorkspaceRepeatIsCachedOnSecondSighting) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const ResponseMatrix& matrix = engine.response_matrix();
  const auto a = ideal_probes(synthetic_table(), {1, 3, 5, 7}, {0.0, 5.0});
  const auto b = ideal_probes(synthetic_table(), {2, 4, 6, 8}, {0.0, 5.0});
  CorrelationWorkspace ws;
  (void)engine.combined_argmax(a, ws);
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  (void)engine.combined_argmax(a, ws);  // promotes the thread's scratch build
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
  EXPECT_EQ(matrix.cache_stats().misses, 1u);
  EXPECT_EQ(matrix.cache_stats().hits, 1u);
  (void)engine.combined_argmax(a, ws);  // the workspace's own panel
  EXPECT_EQ(matrix.cache_stats().hits, 1u);

  // Another workspace's build in between overwrites the thread's scratch
  // panel, so the repeat is built again -- and still cached.
  CorrelationWorkspace other;
  (void)engine.combined_argmax(b, ws);
  (void)engine.combined_argmax(a, other);  // a is cached already: a hit
  const auto c = ideal_probes(synthetic_table(), {9, 7, 5}, {10.0, 5.0});
  (void)engine.combined_argmax(c, other);
  (void)engine.combined_argmax(b, ws);
  EXPECT_EQ(matrix.cached_subset_count(), 2u);
  EXPECT_EQ(matrix.cache_stats().misses, 4u);  // a, b, c, b again
}

TEST(PanelRetention, SecondWorkspaceRepeatIsCachedOnSecondSighting) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const ResponseMatrix& matrix = engine.response_matrix();
  const auto a = ideal_probes(synthetic_table(), {2, 3, 5, 9}, {-10.0, 0.0});
  CorrelationWorkspace first;
  CorrelationWorkspace second;
  const ArgmaxResult x = engine.combined_argmax(a, first);
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  const ArgmaxResult y = engine.combined_argmax(a, second);  // fingerprint hit
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
  EXPECT_EQ(x.index, y.index);
  EXPECT_EQ(x.value, y.value);
  const ArgmaxResult z = engine.combined_argmax(a, first);  // served by the cache
  EXPECT_EQ(z.value, x.value);
  EXPECT_EQ(matrix.cache_stats().misses, 1u);
  EXPECT_EQ(matrix.cache_stats().hits, 2u);
}

TEST(PanelRetention, CyclingSixtyFourSubsetsConvergesToHits) {
  // One workspace over 64 fixed subsets in turn: the workspace's previous
  // sequence never repeats, so only the fingerprint table can spot the
  // repeats. Two cycles in, every subset is cached and the build stops.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const ResponseMatrix& matrix = engine.response_matrix();
  const auto sweeps = distinct_sweeps(64, 23);
  CorrelationWorkspace ws;
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const auto& sweep : sweeps) (void)engine.combined_argmax(sweep, ws);
  }
  EXPECT_EQ(matrix.cached_subset_count(), sweeps.size());
  const ResponseMatrix::CacheStats settled = matrix.cache_stats();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (const auto& sweep : sweeps) (void)engine.combined_argmax(sweep, ws);
  }
  EXPECT_EQ(matrix.cache_stats().misses, settled.misses);
  EXPECT_EQ(matrix.cache_stats().hits, settled.hits + 3 * sweeps.size());
}

TEST(PanelRetention, ConcurrentOneShotAndPromotion) {
  // Four threads, each with its own workspace, interleave one-shot
  // subsets with eight shared repeating ones: scratch builds, fingerprint
  // sightings and promotions race, yet every peak equals the serial
  // reference and every shared subset ends up cached.
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const CorrelationEngine reference(synthetic_table(), synthetic_grid());
  constexpr std::size_t kShared = 8;
  const auto sweeps = distinct_sweeps(kShared + kThreads * kRounds * 4, 31);
  const std::vector<std::vector<SectorReading>> shared(sweeps.begin(),
                                                       sweeps.begin() + kShared);
  const std::vector<std::vector<SectorReading>> one_shot(sweeps.begin() + kShared,
                                                         sweeps.end());
  auto expected = [&](const std::vector<SectorReading>& sweep) {
    const Grid2D::Peak peak = reference.combined_surface(sweep).peak();
    return std::pair(peak.value, peak.direction.azimuth_deg);
  };
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CorrelationWorkspace ws;
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < 4; ++k) {
          const auto& mine = one_shot[static_cast<std::size_t>((t * kRounds + round) * 4 + k)];
          const auto& common = shared[static_cast<std::size_t>(t + round + k) % kShared];
          for (const auto* sweep : {&mine, &common}) {
            const ArgmaxResult got = engine.combined_argmax(*sweep, ws);
            if (std::pair(got.value, got.direction.azimuth_deg) != expected(*sweep)) {
              ++mismatches[static_cast<std::size_t>(t)];
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  const ResponseMatrix& matrix = engine.response_matrix();
  EXPECT_EQ(matrix.cached_subset_count(), shared.size());
  // No call repeats its workspace's previous sequence, so every call is
  // exactly one lookup: a build (miss) or a build-free hit. Every sweep was
  // built at least once.
  const ResponseMatrix::CacheStats stats = matrix.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * one_shot.size());
  EXPECT_GE(stats.misses, one_shot.size() + shared.size());
}

TEST(ResponseMatrix, EmptyTableRejected) {
  PatternTable empty;
  EXPECT_THROW(
      ResponseMatrix(empty, synthetic_grid(), CorrelationDomain::kLinear),
      PreconditionError);
}

}  // namespace
}  // namespace talon
