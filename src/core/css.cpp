#include "src/core/css.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "src/antenna/codebook.hpp"
#include "src/common/angles.hpp"
#include "src/common/error.hpp"

namespace talon {

namespace {

/// Largest surface value at least `exclusion_deg` of azimuth away from the
/// main peak -- the best rival direction hypothesis. 0 when the exclusion
/// zone swallows the whole grid.
double runner_up_value(const Grid2D& surface, double peak_azimuth_deg,
                       double exclusion_deg) {
  const AngularGrid& grid = surface.grid();
  double best = 0.0;
  for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
    if (azimuth_distance_deg(grid.azimuth.value(ia), peak_azimuth_deg) <
        exclusion_deg) {
      continue;
    }
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      best = std::max(best, surface.at(ia, ie));
    }
  }
  return best;
}

/// Peak-to-second-peak ratio; infinity when no rival hypothesis has any
/// correlation at all.
double peak_confidence(const Grid2D& surface, const Grid2D::Peak& peak,
                       double exclusion_deg) {
  const double runner =
      runner_up_value(surface, peak.direction.azimuth_deg, exclusion_deg);
  if (runner <= 0.0) {
    return peak.value > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return peak.value / runner;
}

/// select() for a sweep that does not take the batched argmax: the Eq. 1
/// fallback below min_probes, or the full-surface path (SNR-only
/// ablation, confidence mode).
CssResult select_unbatched(const CorrelationEngine& engine,
                           const PatternTable& patterns, const CssConfig& config,
                           std::span<const SectorReading> probes,
                           std::span<const int> candidates) {
  CssResult result;
  if (engine.usable_probe_count(probes) < config.min_probes) {
    // Too few usable probes for a trustworthy correlation: fall back to
    // the plain argmax over what was received (Eq. 1 on the subset),
    // first maximum on ties. Readings whose SNR fails the usable-value
    // rule cannot rank; with none left (an empty sweep, say) the result
    // stays invalid and the caller keeps its previous selection.
    const SectorReading* best = nullptr;
    for (const SectorReading& r : probes) {
      if (reading_value_usable(r.snr_db) &&
          (best == nullptr || r.snr_db > best->snr_db)) {
        best = &r;
      }
    }
    if (best == nullptr) return result;
    result.valid = true;
    result.sector_id = best->sector_id;
    result.fallback_used = true;
    return result;
  }

  // Full-surface path: the SNR-only ablation (Eq. 2), and the confidence
  // mode, which needs the whole surface to rank the second peak. The peak
  // -- and therefore the selection -- is bit-identical to the argmax path.
  const Grid2D surface = config.use_rssi ? engine.combined_surface(probes)
                                         : engine.surface(probes, SignalValue::kSnr);
  const Grid2D::Peak peak = surface.peak();
  result.valid = true;
  result.estimated_direction = peak.direction;
  result.correlation_peak = peak.value;
  result.sector_id = patterns.best_sector_at(peak.direction, candidates);
  if (config.compute_confidence) {
    result.confidence =
        peak_confidence(surface, peak, config.confidence_exclusion_deg);
  }
  return result;
}

/// Rounding slack above 1 for a normalized correlation peak.
constexpr double kPeakRoundingSlack = 1e-9;

bool within_axis(const Axis& axis, double v) {
  return v >= std::min(axis.first, axis.last()) && v <= std::max(axis.first, axis.last());
}

bool on_grid(const Direction& d, const AngularGrid& grid) {
  return within_axis(grid.azimuth, d.azimuth_deg) &&
         within_axis(grid.elevation, d.elevation_deg);
}

// The throws are cold and out of line, so the checks on the selection
// path stay a few comparisons.
[[noreturn, gnu::cold, gnu::noinline]] void throw_off_grid(const Direction& d) {
  throw InvariantError("CSS direction (" + std::to_string(d.azimuth_deg) + ", " +
                       std::to_string(d.elevation_deg) +
                       ") deg lies outside the search grid");
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_bad_peak(double peak) {
  throw InvariantError("CSS correlation peak " + std::to_string(peak) +
                       " is not a finite value in [0, 1]");
}

}  // namespace

void check_selection_invariant(const CssResult& result, const AngularGrid& grid) {
  if (!result.valid) return;
  // Written so that NaN fails both comparisons.
  if (!(result.correlation_peak >= 0.0 &&
        result.correlation_peak <= 1.0 + kPeakRoundingSlack)) {
    throw_bad_peak(result.correlation_peak);
  }
  if (result.estimated_direction && !on_grid(*result.estimated_direction, grid)) {
    throw_off_grid(*result.estimated_direction);
  }
}

CompressiveSectorSelector::CompressiveSectorSelector(PatternTable patterns,
                                                     CssConfig config)
    : assets_(PatternAssetsRegistry::global().get_or_create(
          std::move(patterns), config.search_grid, config.domain)),
      config_(config) {
  TALON_EXPECTS(config_.min_probes >= 2);
}

CompressiveSectorSelector::CompressiveSectorSelector(
    std::shared_ptr<const PatternAssets> assets, CssConfig config)
    : assets_(std::move(assets)), config_(config) {
  TALON_EXPECTS(assets_ != nullptr);
  TALON_EXPECTS(config_.min_probes >= 2);
  config_.search_grid = assets_->grid();
  config_.domain = assets_->domain();
}

std::size_t CompressiveSectorSelector::batched_argmax(
    std::span<const std::span<const SectorReading>> sweeps,
    CorrelationWorkspace& ws) const {
  ws.ensure_size(ws.argmax_sweeps_, sweeps.size());
  ws.ensure_size(ws.argmax_index_, sweeps.size());
  std::size_t routed = 0;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (engine().usable_probe_count(sweeps[i]) < config_.min_probes) continue;
    ws.argmax_sweeps_[routed] = sweeps[i];
    ws.argmax_index_[routed] = static_cast<std::uint32_t>(i);
    ++routed;
  }
  ws.ensure_size(ws.argmax_peaks_, routed);
  engine().combined_argmax_batch(
      std::span<const std::span<const SectorReading>>(ws.argmax_sweeps_.data(), routed),
      ws.argmax_peaks_, ws);
  return routed;
}

CssResult CompressiveSectorSelector::select(std::span<const SectorReading> probes,
                                            std::span<const int> candidates,
                                            CorrelationWorkspace& ws) const {
  CssResult result;
  select_batch(std::span(&probes, 1), candidates, std::span(&result, 1), ws);
  return result;
}

void CompressiveSectorSelector::select_batch(
    std::span<const std::span<const SectorReading>> sweeps,
    std::span<const int> candidates, std::span<CssResult> out,
    CorrelationWorkspace& ws) const {
  TALON_EXPECTS(!candidates.empty());
  TALON_EXPECTS(out.size() == sweeps.size());
  // Eq. 3/5 without the surface: the pruned argmax lands on the same
  // (bit-identical) peak, so every sweep with enough usable probes rides
  // one batched walk. The SNR-only ablation and the confidence mode need
  // the surface itself.
  const std::size_t routed = config_.use_rssi && !config_.compute_confidence
                                 ? batched_argmax(sweeps, ws)
                                 : 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (j < routed && ws.argmax_index_[j] == i) {
      const ArgmaxResult& peak = ws.argmax_peaks_[j++];
      out[i] = CssResult{
          .valid = true,
          .sector_id = patterns().best_sector_at(peak.direction, candidates),
          .estimated_direction = peak.direction,
          .correlation_peak = peak.value,
      };
      continue;
    }
    out[i] = select_unbatched(engine(), patterns(), config_, sweeps[i], candidates);
  }
  for (const CssResult& r : out) check_selection_invariant(r, config_.search_grid);
}

std::optional<Direction> CompressiveSectorSelector::estimate_direction(
    std::span<const SectorReading> probes, CorrelationWorkspace& ws) const {
  std::optional<Direction> result;
  estimate_directions(std::span(&probes, 1), std::span(&result, 1), ws);
  return result;
}

void CompressiveSectorSelector::estimate_directions(
    std::span<const std::span<const SectorReading>> sweeps,
    std::span<std::optional<Direction>> out, CorrelationWorkspace& ws) const {
  TALON_EXPECTS(out.size() == sweeps.size());
  std::fill(out.begin(), out.end(), std::nullopt);
  if (!config_.use_rssi) {
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      if (engine().usable_probe_count(sweeps[i]) < config_.min_probes) continue;
      out[i] = engine().surface(sweeps[i], SignalValue::kSnr).peak().direction;
    }
  } else {
    const std::size_t routed = batched_argmax(sweeps, ws);
    for (std::size_t j = 0; j < routed; ++j) {
      out[ws.argmax_index_[j]] = ws.argmax_peaks_[j].direction;
    }
  }
  for (const std::optional<Direction>& d : out) {
    if (d && !on_grid(*d, config_.search_grid)) throw_off_grid(*d);
  }
}

}  // namespace talon
