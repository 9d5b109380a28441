// The compressive correlation of Eqs. 2/3/5.
//
// W(phi, theta) = < p/||p|| , x(phi,theta)/||x(phi,theta)|| >^2
// where p is the vector of received signal strengths over the probed
// sectors and x(phi,theta) the vector of the same sectors' *measured*
// pattern responses toward (phi,theta). Sectors whose probe frame was
// missed are excluded from both vectors -- probing a subset anyway is what
// makes CSS "naturally compensate missing measurements" (Sec. 5). So are
// readings that cannot be measurements (non-finite or absurd values, see
// reading_value_usable): one rule decides which readings count, for every
// evaluator below.
//
// CorrelationEngine evaluates the correlation on top of a ResponseMatrix
// (core/response_matrix.hpp): pattern responses resampled onto the search
// grid once, compacted per probe subset into tile-blocked panels (a
// one-shot subset's into a per-thread scratch panel, a repeated one's
// into the shared cache).
// Eq. 5 runs as dense contiguous dot products with no per-element slot
// indexing, either over the whole grid (combined_surface) or -- the
// selection hot path -- as an exact branch-and-bound argmax that prunes
// grid tiles with a Cauchy-Schwarz upper bound and returns the
// bit-identical peak of the full surface without materializing it. There
// is one branch-and-bound walk, batched (combined_argmax_batch): a single
// sweep (combined_argmax, what every link session runs) is a batch of
// one, and the replay engine's batched mode hands a cell's sweeps to one
// call, where sweeps sharing a probe subset walk the tile pyramid
// together.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/common/grid.hpp"
#include "src/core/response_matrix.hpp"
#include "src/phy/measurement.hpp"

namespace talon {

/// Which reading feeds the probe vector.
enum class SignalValue : std::uint8_t { kSnr, kRssi };

namespace detail {

/// One tile's pruning data, produced by the screening kernels in
/// correlation.cpp and scratch-stored per (tile, batch member) by the
/// batched argmax. Exposed (with the two screening kernels below) so the
/// quantized-screening property tests can compare the bounds directly.
struct TileScreen {
  /// Upper bound on the kernel-FP W anywhere in the tile.
  double bound{0.0};
  /// Upper bound on the reciprocal of every positive-norm point's SNR
  /// denominator snr_norm * ||x(g)||.
  double rs{0.0};
  /// Upper bound on cr^2 anywhere in the tile, inflation included.
  double cr2{0.0};
};

/// Float-statistics screening bound (the reference): dots |p| rows
/// against the tile's abs_norm_max statistics.
TileScreen screen_tile_float(const double* abs_ps, const double* abs_pr,
                             const double* u, double sqrt_min_norm,
                             std::size_t m, double inv_snr_norm,
                             double inv_rssi_norm);

/// int16-sidecar screening bound: identical operation order, but every
/// statistic is the dequantized round-up q[mm] * scale >= u[mm]. By
/// floating-point monotonicity the result dominates screen_tile_float's
/// field for field, so pruning on it never cuts a tile the float screen
/// would keep (see correlation.cpp's soundness note).
TileScreen screen_tile_q(const double* abs_ps, const double* abs_pr,
                         const std::uint16_t* q, double scale,
                         double sqrt_min_norm, std::size_t m,
                         double inv_snr_norm, double inv_rssi_norm);

}  // namespace detail

/// The peak of combined_surface without materializing it.
struct ArgmaxResult {
  /// Flat grid index of the peak (ties resolve to the lowest index,
  /// exactly like Grid2D::peak on the full surface).
  std::size_t index{0};
  /// W at the peak -- bit-identical to the surface value there.
  double value{0.0};
  Direction direction{};
};

/// Firmware SNR reporting floor [dB]: readings clamp here (the [-7, 12] dB
/// report range of Sec. 3.2, MeasurementModel's report_min_db). The
/// matching pursuit subtracts this floor in linear power so clamped
/// readings do not add a DC component that correlates with all-floor
/// (unmeasurable) directions.
inline constexpr double kSnrReportingFloorDb = -7.0;

/// Largest magnitude [dB / dBm] a usable reading may have. Real readings
/// sit within tens of dB (the firmware reports SNR in [-7, 12] dB); at
/// 300 dB the linear-domain value 10^(v/10) and every squared norm built
/// from such values stay normal doubles, so no usable reading can
/// overflow (or underflow to zero) in either correlation domain.
inline constexpr double kMaxReadingMagnitudeDb = 300.0;

/// The usable-value rule: finite and within kMaxReadingMagnitudeDb. NaN,
/// +-inf and overflowing values such as 1e308 all fail it.
inline bool reading_value_usable(double value_db) {
  return std::abs(value_db) <= kMaxReadingMagnitudeDb;
}

/// Usable probes of one sweep: matrix slots plus the probe value(s) in
/// the correlation domain, in reading order. `dropped` counts the
/// readings excluded from the vectors: a sector ID with no matrix slot
/// (unknown to the pattern table), or an SNR or RSSI that fails
/// reading_value_usable.
struct ProbeVectors {
  std::vector<int> slots;
  std::vector<double> snr;
  std::vector<double> rssi;
  std::size_t dropped{0};
};

/// Caller-owned scratch for the selection hot path (one per LinkSession's
/// selector and per replay cell). Holds the collected probe vectors, the last slot
/// sequence and its cached subset panel (never a one-shot scratch panel,
/// so an idle workspace pins no panel) and the branch-and-bound tile
/// scratch, so that once warmed
/// up -- a few sweeps with the session's largest probe count and batch
/// size -- repeated argmax and select calls perform zero heap
/// allocations. Not thread-safe; give each concurrent caller its own
/// workspace (panels themselves are shared and immutable).
class CorrelationWorkspace {
 public:
  /// Times any internal buffer had to grow (or the slot sequence
  /// switched, so a panel had to be resolved through the matrix) since
  /// construction; promoting a repeated sequence's panel into the cache
  /// is not charged again. Steady state
  /// on a fixed probe subset holds this constant -- the zero-allocation
  /// tests pin their loop on it.
  std::size_t growth_events() const { return growth_events_; }

 private:
  friend class CorrelationEngine;
  friend class CompressiveSectorSelector;

  /// resize() that charges capacity growth to the growth counter.
  template <typename T>
  void ensure_size(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) ++growth_events_;
    v.resize(n);
  }

  /// Cached panel of the last single-group batch, keyed by its exact
  /// slot sequence, so a caller re-probing one subset skips the matrix
  /// cache (and its lock) entirely. Null while that sequence has been
  /// seen only once: its panel was a scratch build the workspace does not
  /// pin.
  std::shared_ptr<const SubsetPanel> panel_;
  /// Slot sequence of the last single-group batch; seeing it again is a
  /// repeat, which promotes its panel into the shared cache.
  std::vector<int> last_slots_;
  /// Per-coarse-tile group bounds (max over members) and the best-first
  /// visiting order.
  std::vector<double> coarse_bound_;
  std::vector<std::uint32_t> coarse_order_;

  // Per-sweep probe vectors, the slot-sequence grouping order, and the
  // per-member walk state. All sized to the largest batch seen, then
  // reused.
  std::vector<ProbeVectors> batch_probes_;
  std::vector<std::uint32_t> batch_order_;
  /// Per (coarse tile, member) bounds of the current group, [c * K + b].
  std::vector<double> batch_member_bound_;
  /// Per (fine tile in coarse, member) screens, [k * K + b].
  std::vector<detail::TileScreen> batch_screens_;
  /// Per-member |probe| rows, [b * 2 * M]: SNR row then RSSI row.
  std::vector<double> batch_abs_;
  std::vector<double> batch_snr_norm_;
  std::vector<double> batch_rssi_norm_;
  std::vector<double> batch_inv_snr_;
  std::vector<double> batch_inv_rssi_;
  std::vector<double> batch_best_;
  std::vector<std::size_t> batch_best_g_;
  std::vector<const double*> batch_ps_;
  std::vector<const double*> batch_pr_;
  std::vector<std::uint8_t> batch_coarse_active_;
  std::vector<std::uint8_t> batch_tile_active_;

  // Selection scratch (CompressiveSectorSelector): the sweeps of a batch
  // that take the argmax path, their positions in the batch, and their
  // peaks.
  std::vector<std::span<const SectorReading>> argmax_sweeps_;
  std::vector<std::uint32_t> argmax_index_;
  std::vector<ArgmaxResult> argmax_peaks_;
  std::size_t growth_events_{0};
};

class CorrelationEngine {
 public:
  /// `patterns` must contain every sector that may ever be probed.
  /// `search_grid` is the discrete (phi, theta) grid of Eq. 3.
  CorrelationEngine(const PatternTable& patterns, AngularGrid search_grid,
                    CorrelationDomain domain = CorrelationDomain::kLinear);

  const AngularGrid& search_grid() const { return matrix_.grid(); }
  CorrelationDomain domain() const { return matrix_.domain(); }

  /// The precomputed grid-major response matrix the surfaces run over.
  const ResponseMatrix& response_matrix() const { return matrix_; }

  /// Eq. 2 evaluated on the whole grid for one value type.
  /// Readings that usable_probe_count would not count are ignored.
  /// Requires at least 2 usable readings.
  Grid2D surface(std::span<const SectorReading> readings, SignalValue value) const;

  /// Eq. 5: element-wise product of the SNR and RSSI surfaces, computed in
  /// one fused grid pass (both dots and the product per point):
  /// combined_surface_batch for one sweep (a batch of one).
  Grid2D combined_surface(std::span<const SectorReading> readings) const;

  using ArgmaxResult = talon::ArgmaxResult;

  /// Eq. 3 over the Eq. 5 surface as an exact branch-and-bound search,
  /// batched: the peak of combined_surface for K sweeps in one call,
  /// writing out[i] for sweeps[i] (out.size() must equal sweeps.size()).
  /// Grid tiles are visited best-bound-first and skipped when a rigorous
  /// floating-point upper bound (per-tile response extrema + minimum
  /// subset norm, Cauchy-Schwarz on both correlation factors) cannot beat
  /// the running best; surviving points are evaluated with the exact
  /// combined_surface arithmetic. Sweeps whose usable probes map onto the
  /// same slot sequence form a group that walks the tile pyramid ONCE:
  /// tiles are screened for every member at each visit (ordered by the
  /// best member bound), so the panel's tile values are touched while
  /// cache-hot for all K members instead of K times cold. Only the
  /// replay engine's batched mode passes K > 1; a link session selects
  /// one sweep at a time. Every member
  /// prunes by its own bound, so each result is bit-identical to
  /// combined_surface(sweeps[i]).peak() regardless of grouping (asserted
  /// per member in debug builds). Steady state on stable sweep shapes
  /// performs zero heap allocations; `ws` holds all scratch. Every sweep
  /// needs >= 2 usable readings with positive probe norms, like
  /// combined_surface.
  void combined_argmax_batch(std::span<const std::span<const SectorReading>> sweeps,
                             std::span<ArgmaxResult> out,
                             CorrelationWorkspace& ws) const;

  /// combined_argmax_batch for one sweep (a batch of one).
  ArgmaxResult combined_argmax(std::span<const SectorReading> readings,
                               CorrelationWorkspace& ws) const;

  /// combined_argmax with a throwaway workspace (cold path / tests).
  ArgmaxResult combined_argmax(std::span<const SectorReading> readings) const;

  /// Batched Eq. 5: one surface per input sweep. Sweeps whose usable
  /// probes map onto the same slot sequence share one panel resolution and
  /// one per-point sqrt pass; a lone sweep at small M whose subset has no
  /// cached panel yet walks the matrix rows directly (direct_surface).
  /// Every route accumulates each point in the same order, so a surface's
  /// bits do not depend on how the sweeps were grouped and callers may
  /// batch opportunistically. Every sweep needs >= 2 usable readings with
  /// positive probe norms.
  std::vector<Grid2D> combined_surface_batch(
      std::span<const std::span<const SectorReading>> sweeps) const;

  /// Number of usable readings: known sector, usable SNR and RSSI.
  std::size_t usable_probe_count(std::span<const SectorReading> readings) const;

  /// Usable probes of one sweep in reading order, with the other readings
  /// dropped (and counted).
  ProbeVectors collect_probes(std::span<const SectorReading> readings,
                              bool need_snr, bool need_rssi) const;

  /// One extracted propagation path (see matching_pursuit).
  struct Path {
    Direction direction;
    /// Correlation of the (residual) probe vector with this path, [0, 1].
    double score{0.0};
    /// Fraction of the original probe power this path explains, [0, 1].
    double explained_power{0.0};
  };

  /// Noncoherent matching pursuit (the Rasekh et al. style estimator the
  /// paper adapts): ray powers add linearly at the receiver, so after the
  /// strongest path is found its explained component can be subtracted
  /// from the linear probe vector and the correlation re-run on the
  /// residual -- which exposes reflections an order of magnitude weaker
  /// than the LOS, invisible in the plain Eq. 2 surface. Extraction stops
  /// after `max_paths`, when a residual peak falls below
  /// `min_score`, or when the residual power is exhausted. Only the SNR
  /// values feed the pursuit (power subtraction needs one consistent
  /// scale). Requires kLinear domain and >= 2 usable probes.
  /// `min_separation_deg` masks by great-circle angle; when
  /// `separate_in_azimuth` is true it masks by azimuth distance instead,
  /// which suppresses the elevation-ambiguity twin of an extracted path
  /// (in-plane sector responses are weakly elevation-selective, so the
  /// subtraction residue correlates at the same azimuth and higher
  /// elevation -- not a distinct propagation path).
  std::vector<Path> matching_pursuit(std::span<const SectorReading> readings,
                                     int max_paths = 2, double min_score = 0.35,
                                     double min_separation_deg = 10.0,
                                     bool separate_in_azimuth = false) const;

 private:
  /// The one usable-reading rule behind usable_probe_count and
  /// collect_probes: the reading's matrix slot when its sector is in the
  /// table and both its SNR and RSSI pass reading_value_usable, else -1.
  int usable_slot(const SectorReading& r) const {
    return reading_value_usable(r.snr_db) && reading_value_usable(r.rssi_dbm)
               ? matrix_.slot(r.sector_id)
               : -1;
  }

  /// collect_probes into caller-owned vectors (the zero-allocation path).
  void collect_probes_into(std::span<const SectorReading> readings, bool need_snr,
                           bool need_rssi, ProbeVectors& out) const;

  /// Eq. 5 over the whole grid straight from the matrix rows, into `w`:
  /// combined_surface_batch's one-shot small-M path, bit-identical to the
  /// panel walk. Touches no panel.
  void direct_surface(const ProbeVectors& probes, double snr_norm, double rssi_norm,
                      std::span<double> w) const;

  /// The panel for `slots` through ws.panel_: reused when the sequence
  /// matches (no lock, no allocation), else leased from the matrix -- a
  /// subset switch, charged to the growth counter, unless it repeats the
  /// workspace's previous sequence. A cached panel is kept in ws.panel_;
  /// a scratch panel is held in `scratch` for the caller's walk only.
  const SubsetPanel& resolve_panel(const std::vector<int>& slots,
                                   CorrelationWorkspace& ws,
                                   std::shared_ptr<const SubsetPanel>& scratch) const;

  /// One slot-sequence group of the batched argmax: members are indices
  /// into ws.batch_probes_ sharing the panel `pan`; writes out[members[b]].
  void argmax_group(std::span<const std::uint32_t> members, const SubsetPanel& pan,
                    std::span<ArgmaxResult> out, CorrelationWorkspace& ws) const;

  ResponseMatrix matrix_;
};

}  // namespace talon
