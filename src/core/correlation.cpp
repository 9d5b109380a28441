#include "src/core/correlation.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/tile_dots.hpp"

namespace talon {

namespace {

constexpr std::size_t kTile = SubsetPanel::kTilePoints;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A one-member surface group at or below this probe count is eligible
/// for the non-tiled direct walk through the full response matrix --
/// taken only while the subset looks one-shot (no cached panel yet, see
/// ResponseMatrix::panel_if_warm): at tiny M even a scratch panel build
/// costs more than the single walk it would replace, but once a subset
/// repeats the compacted panel's streaming reads win, so it gets built
/// then.
constexpr std::size_t kDirectSurfaceMaxM = 8;

double to_domain(double db_value, CorrelationDomain domain) {
  return domain == CorrelationDomain::kLinear ? db_to_linear(db_value) : db_value;
}

/// Outward slack applied to every pruning bound so it rigorously
/// dominates the kernel's finite-precision result without having to
/// mirror its operation order. The bound's real value already dominates
/// the real W everywhere in a tile (Cauchy-Schwarz on the normalized
/// dictionary columns, no cancellation: every accumulated term is
/// non-negative); kernel and bound then each differ from their real
/// values by a relative error below ~(6M + 40) machine epsilons -- under
/// 1e-12 even at M in the thousands -- so inflating by 1e-10 leaves the
/// domination intact with orders of magnitude to spare. The absolute
/// slack covers the one regime where relative-error reasoning fails,
/// results underflowing toward subnormals, where every quantity involved
/// is below it anyway. Skipping is therefore exact: a pruned tile
/// provably cannot contain the argmax (debug builds assert this against
/// the full surface).
constexpr double kBoundInflate = 1.0 + 1e-10;
constexpr double kBoundAbsSlack = 1e-290;

}  // namespace

namespace detail {

/// Bound one tile from its per-slot normalized-response maxima `u`
/// (|x_m(g)| / ||x(g)|| maximized over the tile, see SubsetPanel):
/// |cs(g)| = |<p, x(g)/||x(g)||>| / p_norm <= dot(|p|, u) / p_norm for
/// every g in the tile, and likewise for cr. Callers pass the probe
/// magnitudes |p| precomputed.
TileScreen screen_tile_float(const double* abs_ps, const double* abs_pr,
                             const double* u, double sqrt_min_norm,
                             std::size_t m, double inv_snr_norm,
                             double inv_rssi_norm) {
  double as = 0.0;
  double ar = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) {
    const double um = u[mm];
    as += abs_ps[mm] * um;
    ar += abs_pr[mm] * um;
  }
  const double cs_ub = as * inv_snr_norm;
  const double cr_ub = ar * inv_rssi_norm;
  const double cr2 = (cr_ub * cr_ub) * kBoundInflate;
  const double bound = (cs_ub * cs_ub) * cr2 + kBoundAbsSlack;
  const double rs =
      sqrt_min_norm < kInf ? inv_snr_norm / sqrt_min_norm : 0.0;
  return {bound, rs, cr2};
}

/// The same bound from the int16 sidecar, reading 2 bytes of tile
/// statistics per slot instead of 8 (the pyramid screens are what the
/// traversal's memory traffic is made of at small M).
///
/// Soundness: the dequantized statistic q[mm] * scale is EXACT in double
/// (a <= 15-bit integer times a power of two) and >= u[mm] by
/// construction (round-up, see ResponseMatrix::build_panel). Every
/// operation below matches screen_tile_float's sequence on inputs that
/// are element-wise >= its inputs, all terms are non-negative, and IEEE
/// rounding is monotone -- so every field of the result dominates the
/// float screen's field, which already rigorously dominates the kernel
/// result (slack argument above). Pruning on the quantized bound can
/// therefore never cut a tile or point the float bound would keep, and
/// since a valid bound set yields the exact argmax under ANY traversal
/// order, the selection stays bit-identical to the full surface peak.
TileScreen screen_tile_q(const double* abs_ps, const double* abs_pr,
                         const std::uint16_t* q, double scale,
                         double sqrt_min_norm, std::size_t m,
                         double inv_snr_norm, double inv_rssi_norm) {
  double as = 0.0;
  double ar = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) {
    const double um = static_cast<double>(q[mm]) * scale;
    as += abs_ps[mm] * um;
    ar += abs_pr[mm] * um;
  }
  const double cs_ub = as * inv_snr_norm;
  const double cr_ub = ar * inv_rssi_norm;
  const double cr2 = (cr_ub * cr_ub) * kBoundInflate;
  const double bound = (cs_ub * cs_ub) * cr2 + kBoundAbsSlack;
  const double rs =
      sqrt_min_norm < kInf ? inv_snr_norm / sqrt_min_norm : 0.0;
  return {bound, rs, cr2};
}

}  // namespace detail

CorrelationEngine::CorrelationEngine(const PatternTable& patterns,
                                     AngularGrid search_grid,
                                     CorrelationDomain domain)
    : matrix_(patterns, search_grid, domain) {}

std::size_t CorrelationEngine::usable_probe_count(
    std::span<const SectorReading> readings) const {
  std::size_t n = 0;
  for (const SectorReading& r : readings) {
    if (usable_slot(r) >= 0) ++n;
  }
  return n;
}

void CorrelationEngine::collect_probes_into(std::span<const SectorReading> readings,
                                            bool need_snr, bool need_rssi,
                                            ProbeVectors& out) const {
  out.slots.clear();
  out.snr.clear();
  out.rssi.clear();
  out.dropped = 0;
  out.slots.reserve(readings.size());
  if (need_snr) out.snr.reserve(readings.size());
  if (need_rssi) out.rssi.reserve(readings.size());
  for (const SectorReading& r : readings) {
    const int slot = usable_slot(r);
    if (slot < 0) {
      ++out.dropped;
      continue;
    }
    out.slots.push_back(slot);
    if (need_snr) out.snr.push_back(to_domain(r.snr_db, matrix_.domain()));
    if (need_rssi) out.rssi.push_back(to_domain(r.rssi_dbm, matrix_.domain()));
  }
}

ProbeVectors CorrelationEngine::collect_probes(
    std::span<const SectorReading> readings, bool need_snr, bool need_rssi) const {
  ProbeVectors out;
  collect_probes_into(readings, need_snr, need_rssi, out);
  return out;
}

Grid2D CorrelationEngine::surface(std::span<const SectorReading> readings,
                                  SignalValue value) const {
  const bool use_snr = value == SignalValue::kSnr;
  const ProbeVectors probes = collect_probes(readings, use_snr, !use_snr);
  const std::vector<double>& p = use_snr ? probes.snr : probes.rssi;
  TALON_EXPECTS(p.size() >= 2);

  double p_norm_sq = 0.0;
  for (double v : p) p_norm_sq += v * v;
  TALON_EXPECTS(p_norm_sq > 0.0);
  const double p_norm = std::sqrt(p_norm_sq);

  // Retained on first use: the SNR-only surface serves the Eq. 2
  // ablation and the figure analyses, which revisit their subsets.
  const std::shared_ptr<const SubsetPanel> panel = matrix_.panel(probes.slots);
  const SubsetPanel& pan = *panel;
  const std::size_t m_count = pan.m();

  Grid2D out(matrix_.grid());
  std::vector<double>& w = out.values();
  double dot[kTile];
  for (std::size_t t = 0; t < pan.fine_tiles; ++t) {
    const std::size_t g0 = t * kTile;
    const std::size_t count = std::min(kTile, pan.points - g0);
    const double* block = pan.tile_values(t);
    tile_dots(block, p.data(), nullptr, m_count, dot, nullptr);
    for (std::size_t gi = 0; gi < count; ++gi) {
      const std::size_t g = g0 + gi;
      const double x_norm_sq = pan.norms_sq[g];
      if (x_norm_sq <= 0.0) {
        w[g] = 0.0;
        continue;
      }
      const double c = dot[gi] / (p_norm * std::sqrt(x_norm_sq));
      w[g] = c * c;
    }
  }
  return out;
}

Grid2D CorrelationEngine::combined_surface(
    std::span<const SectorReading> readings) const {
  return std::move(combined_surface_batch(std::span(&readings, 1)).front());
}

void CorrelationEngine::direct_surface(const ProbeVectors& probes, double snr_norm,
                                       double rssi_norm, std::span<double> w) const {
  const std::size_t m_count = probes.slots.size();
  const int* slots = probes.slots.data();
  const double* ps = probes.snr.data();
  const double* pr = probes.rssi.data();
  const std::size_t points = matrix_.points();
  for (std::size_t g = 0; g < points; ++g) {
    const std::span<const double> row = matrix_.point(g);
    double ds = 0.0;
    double dr = 0.0;
    double x_norm_sq = 0.0;
    for (std::size_t m = 0; m < m_count; ++m) {
      const double x = row[static_cast<std::size_t>(slots[m])];
      ds += ps[m] * x;
      dr += pr[m] * x;
      x_norm_sq += x * x;
    }
    if (x_norm_sq <= 0.0) {
      w[g] = 0.0;
      continue;
    }
    const double x_norm = std::sqrt(x_norm_sq);
    const double cs = ds / (snr_norm * x_norm);
    const double cr = dr / (rssi_norm * x_norm);
    w[g] = (cs * cs) * (cr * cr);
  }
}

const SubsetPanel& CorrelationEngine::resolve_panel(
    const std::vector<int>& slots, CorrelationWorkspace& ws,
    std::shared_ptr<const SubsetPanel>& scratch) const {
  if (ws.panel_ && ws.panel_->slots == slots) return *ws.panel_;
  // The workspace's previous sequence seen again is a repeat: it enters
  // the shared cache. Anything else is a subset switch (charged once,
  // not again on promotion) and may well be one-shot.
  const bool repeat = ws.last_slots_ == slots;
  if (!repeat) {
    ws.last_slots_ = slots;
    ++ws.growth_events_;  // subset switch: cold path by definition
  }
  ResponseMatrix::Lease lease = matrix_.lease(slots, repeat);
  if (lease.cached) {
    ws.panel_ = std::move(lease.panel);
    return *ws.panel_;
  }
  ws.panel_.reset();  // a scratch panel is not the workspace's to keep
  scratch = std::move(lease.panel);
  return *scratch;
}

CorrelationEngine::ArgmaxResult CorrelationEngine::combined_argmax(
    std::span<const SectorReading> readings, CorrelationWorkspace& ws) const {
  ArgmaxResult result;
  combined_argmax_batch(std::span(&readings, 1), std::span(&result, 1), ws);
  return result;
}

CorrelationEngine::ArgmaxResult CorrelationEngine::combined_argmax(
    std::span<const SectorReading> readings) const {
  CorrelationWorkspace ws;
  return combined_argmax(readings, ws);
}

void CorrelationEngine::argmax_group(
    std::span<const std::uint32_t> members, const SubsetPanel& pan,
    std::span<ArgmaxResult> out, CorrelationWorkspace& ws) const {
  const std::size_t k_members = members.size();
  const std::size_t m_count = pan.m();

  // Per-member norms, probe magnitudes and running-best state.
  ws.ensure_size(ws.batch_snr_norm_, k_members);
  ws.ensure_size(ws.batch_rssi_norm_, k_members);
  ws.ensure_size(ws.batch_inv_snr_, k_members);
  ws.ensure_size(ws.batch_inv_rssi_, k_members);
  ws.ensure_size(ws.batch_best_, k_members);
  ws.ensure_size(ws.batch_best_g_, k_members);
  ws.ensure_size(ws.batch_ps_, k_members);
  ws.ensure_size(ws.batch_pr_, k_members);
  ws.ensure_size(ws.batch_coarse_active_, k_members);
  ws.ensure_size(ws.batch_tile_active_, k_members);
  ws.ensure_size(ws.batch_abs_, k_members * 2 * m_count);
  for (std::size_t b = 0; b < k_members; ++b) {
    const ProbeVectors& p = ws.batch_probes_[members[b]];
    double snr_norm_sq = 0.0;
    for (double v : p.snr) snr_norm_sq += v * v;
    TALON_EXPECTS(snr_norm_sq > 0.0);
    double rssi_norm_sq = 0.0;
    for (double v : p.rssi) rssi_norm_sq += v * v;
    TALON_EXPECTS(rssi_norm_sq > 0.0);
    ws.batch_snr_norm_[b] = std::sqrt(snr_norm_sq);
    ws.batch_rssi_norm_[b] = std::sqrt(rssi_norm_sq);
    ws.batch_inv_snr_[b] = 1.0 / ws.batch_snr_norm_[b];
    ws.batch_inv_rssi_[b] = 1.0 / ws.batch_rssi_norm_[b];
    ws.batch_ps_[b] = p.snr.data();
    ws.batch_pr_[b] = p.rssi.data();
    double* abs_row = ws.batch_abs_.data() + b * 2 * m_count;
    for (std::size_t m = 0; m < m_count; ++m) {
      abs_row[m] = std::abs(p.snr[m]);
      abs_row[m_count + m] = std::abs(p.rssi[m]);
    }
    ws.batch_best_[b] = -1.0;  // below any W: first visited tile evaluates
    ws.batch_best_g_[b] = 0;
  }

  // Level 1: bound every coarse tile for every member and walk the tiles
  // best-group-bound-first, so each member's running best is (almost
  // always) its true peak after the first tile and everything else
  // prunes. Each member prunes by its own bound.
  const std::size_t nc = pan.coarse_tiles;
  ws.ensure_size(ws.coarse_bound_, nc);
  ws.ensure_size(ws.coarse_order_, nc);
  ws.ensure_size(ws.batch_member_bound_, nc * k_members);
  for (std::size_t c = 0; c < nc; ++c) {
    double group_bound = 0.0;
    for (std::size_t b = 0; b < k_members; ++b) {
      const double* abs_row = ws.batch_abs_.data() + b * 2 * m_count;
      const double bound =
          detail::screen_tile_q(abs_row, abs_row + m_count,
                                pan.coarse_q.data() + c * m_count,
                                pan.coarse_q_scale[c], pan.coarse_sqrt_min_norm[c],
                                m_count, ws.batch_inv_snr_[b],
                                ws.batch_inv_rssi_[b])
              .bound;
      ws.batch_member_bound_[c * k_members + b] = bound;
      group_bound = std::max(group_bound, bound);
    }
    ws.coarse_bound_[c] = group_bound;
    ws.coarse_order_[c] = static_cast<std::uint32_t>(c);
  }
  std::sort(ws.coarse_order_.begin(), ws.coarse_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (ws.coarse_bound_[a] != ws.coarse_bound_[b]) {
                return ws.coarse_bound_[a] > ws.coarse_bound_[b];
              }
              return a < b;
            });

  // The skip rules below are exact, not heuristic: a member skips a tile
  // only when its bound proves no point in it can beat the member's best
  // -- including the lowest-index tie rule Grid2D::peak applies -- so
  // each result matches the full-surface argmax bit for bit.
  ws.ensure_size(ws.batch_screens_, SubsetPanel::kFinePerCoarse * k_members);
  double dsg[kTile];

  for (const std::uint32_t c : ws.coarse_order_) {
    // The group bound is the max member bound, so once it drops below the
    // weakest member's running best, no later tile can help anyone.
    double min_best = kInf;
    for (std::size_t b = 0; b < k_members; ++b) {
      min_best = std::min(min_best, ws.batch_best_[b]);
    }
    if (ws.coarse_bound_[c] < min_best) break;
    const std::size_t t0 = c * SubsetPanel::kFinePerCoarse;
    bool any_active = false;
    for (std::size_t b = 0; b < k_members; ++b) {
      const double mb = ws.batch_member_bound_[c * k_members + b];
      // The visit rule, per member: the tile can beat this member's best,
      // or tie it at a lower grid index.
      const bool active =
          mb > ws.batch_best_[b] ||
          (mb == ws.batch_best_[b] && t0 * kTile <= ws.batch_best_g_[b]);
      ws.batch_coarse_active_[b] = active ? 1 : 0;
      any_active |= active;
    }
    if (!any_active) continue;
    const std::size_t t1 = std::min(t0 + SubsetPanel::kFinePerCoarse, pan.fine_tiles);
    const std::size_t nf = t1 - t0;

    // Level 2: fine screens for the members still in play, visited in
    // order of the best member fine bound.
    double fine_max[SubsetPanel::kFinePerCoarse];
    std::size_t order[SubsetPanel::kFinePerCoarse];
    for (std::size_t k = 0; k < nf; ++k) {
      const std::size_t t = t0 + k;
      double group_bound = 0.0;
      for (std::size_t b = 0; b < k_members; ++b) {
        if (!ws.batch_coarse_active_[b]) continue;
        const double* abs_row = ws.batch_abs_.data() + b * 2 * m_count;
        ws.batch_screens_[k * k_members + b] = detail::screen_tile_q(
            abs_row, abs_row + m_count, pan.fine_q.data() + t * m_count,
            pan.fine_q_scale[t], pan.fine_sqrt_min_norm[t], m_count,
            ws.batch_inv_snr_[b], ws.batch_inv_rssi_[b]);
        group_bound =
            std::max(group_bound, ws.batch_screens_[k * k_members + b].bound);
      }
      fine_max[k] = group_bound;
      order[k] = k;
    }
    for (std::size_t k = 1; k < nf; ++k) {  // insertion sort: nf <= 8
      const std::size_t v = order[k];
      std::size_t j = k;
      while (j > 0 && fine_max[order[j - 1]] < fine_max[v]) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = v;
    }

    for (std::size_t k = 0; k < nf; ++k) {
      double min_active_best = kInf;
      for (std::size_t b = 0; b < k_members; ++b) {
        if (!ws.batch_coarse_active_[b]) continue;
        min_active_best = std::min(min_active_best, ws.batch_best_[b]);
      }
      if (fine_max[order[k]] < min_active_best) break;
      const std::size_t t = t0 + order[k];
      const std::size_t g0 = t * kTile;
      bool tile_any = false;
      for (std::size_t b = 0; b < k_members; ++b) {
        bool active = false;
        if (ws.batch_coarse_active_[b]) {
          const detail::TileScreen& s = ws.batch_screens_[order[k] * k_members + b];
          active = s.bound > ws.batch_best_[b] ||
                   (s.bound == ws.batch_best_[b] && g0 <= ws.batch_best_g_[b]);
        }
        ws.batch_tile_active_[b] = active ? 1 : 0;
        tile_any |= active;
      }
      if (!tile_any) continue;
      const std::size_t count = std::min(kTile, pan.points - g0);
      const double* block = pan.tile_values(t);
      const double* norms = pan.norms_sq.data();

      // The tile's values are walked back to back for every surviving
      // member while they are cache-hot -- this locality is the batch
      // win.
      for (std::size_t b = 0; b < k_members; ++b) {
        if (!ws.batch_tile_active_[b]) continue;
        const detail::TileScreen& s = ws.batch_screens_[order[k] * k_members + b];
        const double* ps = ws.batch_ps_[b];
        const double* pr = ws.batch_pr_[b];
        const double snr_norm = ws.batch_snr_norm_[b];
        const double rssi_norm = ws.batch_rssi_norm_[b];
        double best = ws.batch_best_[b];
        std::size_t best_g = ws.batch_best_g_[b];
        tile_dots(block, ps, nullptr, m_count, dsg, nullptr);
        for (std::size_t gi = 0; gi < count; ++gi) {
          const std::size_t g = g0 + gi;
          const double n = norms[g];
          double w = 0.0;
          if (n > 0.0) {
            // Multiply-only per-point screen (same slack argument as the
            // tile bound): only survivors pay the RSSI dot, the sqrt and
            // the divisions.
            const double cs_scr = dsg[gi] * s.rs;
            const double scr = (cs_scr * cs_scr) * s.cr2 + kBoundAbsSlack;
            if (scr < best || (scr == best && g > best_g)) continue;
            double dr = 0.0;
            const double* col = block + gi;
            for (std::size_t m = 0; m < m_count; ++m) dr += pr[m] * col[m * kTile];
            const double x_norm = std::sqrt(n);
            const double cs = dsg[gi] / (snr_norm * x_norm);
            const double cr = dr / (rssi_norm * x_norm);
            w = (cs * cs) * (cr * cr);
          }
          if (w > best || (w == best && g < best_g)) {
            best = w;
            best_g = g;
          }
        }
        ws.batch_best_[b] = best;
        ws.batch_best_g_[b] = best_g;
      }
    }
  }

  for (std::size_t b = 0; b < k_members; ++b) {
    const std::size_t g = ws.batch_best_g_[b];
    out[members[b]] =
        ArgmaxResult{g, ws.batch_best_[b], matrix_.directions()[g]};
#ifndef NDEBUG
    {
      // The whole point of the bound algebra is that pruning changes
      // nothing -- whatever the grouping and the quantized screening --
      // so verify every member against the reference surface when
      // asserts are on. The reference walks the matrix rows, not a
      // panel, so the check neither shares the walk's panel nor touches
      // the panel cache.
      const ProbeVectors& p = ws.batch_probes_[members[b]];
      double snr_norm_sq = 0.0;
      for (double v : p.snr) snr_norm_sq += v * v;
      double rssi_norm_sq = 0.0;
      for (double v : p.rssi) rssi_norm_sq += v * v;
      std::vector<double> rv(matrix_.points());
      direct_surface(p, std::sqrt(snr_norm_sq), std::sqrt(rssi_norm_sq), rv);
      const auto it = std::max_element(rv.begin(), rv.end());
      assert(static_cast<std::size_t>(it - rv.begin()) == out[members[b]].index);
      assert(*it == out[members[b]].value);
    }
#endif
  }
}

void CorrelationEngine::combined_argmax_batch(
    std::span<const std::span<const SectorReading>> sweeps,
    std::span<ArgmaxResult> out, CorrelationWorkspace& ws) const {
  TALON_EXPECTS(out.size() == sweeps.size());
  const std::size_t n = sweeps.size();
  if (n == 0) return;

  // Per-sweep probe vectors into reusable slots (only ever grown).
  if (ws.batch_probes_.size() < n) {
    ws.batch_probes_.resize(n);
    ++ws.growth_events_;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ProbeVectors& p = ws.batch_probes_[i];
    const std::size_t caps_before =
        p.slots.capacity() + p.snr.capacity() + p.rssi.capacity();
    collect_probes_into(sweeps[i], true, true, p);
    if (p.slots.capacity() + p.snr.capacity() + p.rssi.capacity() != caps_before) {
      ++ws.growth_events_;
    }
    TALON_EXPECTS(p.slots.size() >= 2);
  }

  // Group sweeps that probed the same slot sequence: sort the indices
  // lexicographically by sequence (ties by index, for determinism) and
  // take runs. No per-call key materialization, no allocation.
  ws.ensure_size(ws.batch_order_, n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.batch_order_[i] = static_cast<std::uint32_t>(i);
  }
  auto slots_of = [&](std::size_t i) -> const std::vector<int>& {
    return ws.batch_probes_[ws.batch_order_[i]].slots;
  };
  if (n > 1) {
    std::sort(ws.batch_order_.begin(), ws.batch_order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::vector<int>& sa = ws.batch_probes_[a].slots;
                const std::vector<int>& sb = ws.batch_probes_[b].slots;
                if (sa == sb) return a < b;
                return std::lexicographical_compare(sa.begin(), sa.end(),
                                                    sb.begin(), sb.end());
              });
  }
  if (slots_of(0) == slots_of(n - 1)) {
    // One group (every single-sweep call): the workspace panel follows
    // it, so a caller re-probing one subset skips the matrix cache.
    std::shared_ptr<const SubsetPanel> scratch;
    argmax_group(ws.batch_order_, resolve_panel(slots_of(0), ws, scratch), out, ws);
    return;
  }
  // Several groups: reuse the workspace panel when it matches, otherwise
  // lease one WITHOUT displacing ws.panel_ -- the groups would ping-pong
  // it every call and turn the growth counter into noise. A cache hit
  // under the shared lock allocates nothing, and a one-shot group's
  // lease ends with its walk, so the next group rebuilds the thread's
  // scratch panel in place.
  std::size_t i0 = 0;
  while (i0 < n) {
    std::size_t i1 = i0 + 1;
    while (i1 < n && slots_of(i1) == slots_of(i0)) ++i1;
    std::shared_ptr<const SubsetPanel> local_panel;
    const SubsetPanel* pan = ws.panel_.get();
    if (!ws.panel_ || ws.panel_->slots != slots_of(i0)) {
      local_panel = matrix_.lease(slots_of(i0)).panel;
      pan = local_panel.get();
    }
    argmax_group(std::span<const std::uint32_t>(ws.batch_order_.data() + i0,
                                                i1 - i0),
                 *pan, out, ws);
    i0 = i1;
  }
}

std::vector<Grid2D> CorrelationEngine::combined_surface_batch(
    std::span<const std::span<const SectorReading>> sweeps) const {
  std::vector<Grid2D> out(sweeps.size());
  if (sweeps.empty()) return out;

  // Collect every sweep's probe vectors once, then group the sweeps whose
  // usable probes hit the same slot sequence: those share the panel
  // resolution and the per-point sqrt.
  std::vector<ProbeVectors> probes;
  probes.reserve(sweeps.size());
  std::map<std::vector<int>, std::vector<std::size_t>> panels;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    probes.push_back(collect_probes(sweeps[i], true, true));
    TALON_EXPECTS(probes[i].slots.size() >= 2);
    panels[probes[i].slots].push_back(i);
  }

  std::vector<const double*> ps;  // per-member probe vectors
  std::vector<const double*> pr;
  std::vector<double*> w;  // per-member output surfaces
  std::vector<double> snr_norms;
  std::vector<double> rssi_norms;
  for (const auto& [slots, members] : panels) {
    const std::size_t batch = members.size();
    ps.resize(batch);
    pr.resize(batch);
    w.resize(batch);
    snr_norms.resize(batch);
    rssi_norms.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const ProbeVectors& p = probes[members[b]];
      double snr_norm_sq = 0.0;
      for (double v : p.snr) snr_norm_sq += v * v;
      TALON_EXPECTS(snr_norm_sq > 0.0);
      double rssi_norm_sq = 0.0;
      for (double v : p.rssi) rssi_norm_sq += v * v;
      TALON_EXPECTS(rssi_norm_sq > 0.0);
      snr_norms[b] = std::sqrt(snr_norm_sq);
      rssi_norms[b] = std::sqrt(rssi_norm_sq);
      ps[b] = p.snr.data();
      pr[b] = p.rssi.data();
      out[members[b]] = Grid2D(matrix_.grid());
      w[b] = out[members[b]].values().data();
    }

    // Small-M one-shot fast path for a lone sweep: on the first sighting
    // of a subset, walking the full response matrix rows directly beats
    // building a panel this call might use once (even a scratch build
    // gathers the whole matrix). Once the subset repeats -- panel_if_warm
    // promotes it on the second sighting -- the compacted tile walk below
    // wins: it streams M*8 bytes per point through the SIMD kernel instead
    // of gathering from the full sector row. Both paths are bit-identical:
    // per point, the dots, the norm and the epilogue all accumulate in the
    // same ascending sequence order (the panel's values and norms are
    // built in exactly this order).
    const std::shared_ptr<const SubsetPanel> panel =
        batch == 1 && slots.size() <= kDirectSurfaceMaxM
            ? matrix_.panel_if_warm(slots)
            : matrix_.lease(slots).panel;
    if (panel == nullptr) {
      direct_surface(probes[members[0]], snr_norms[0], rssi_norms[0],
                     out[members[0]].values());
      continue;
    }
    const SubsetPanel& pan = *panel;
    const std::size_t m_count = pan.m();

    double dot_snr[kTile];
    double dot_rssi[kTile];
    double x_norm[kTile];  // < 0 marks a zero-norm point
    for (std::size_t t = 0; t < pan.fine_tiles; ++t) {
      const std::size_t g0 = t * kTile;
      const std::size_t count = std::min(kTile, pan.points - g0);
      const double* block = pan.tile_values(t);
      for (std::size_t gi = 0; gi < count; ++gi) {
        const double n = pan.norms_sq[g0 + gi];
        x_norm[gi] = n > 0.0 ? std::sqrt(n) : -1.0;
      }
      for (std::size_t b = 0; b < batch; ++b) {
        tile_dots(block, ps[b], pr[b], m_count, dot_snr, dot_rssi);
        double* wb = w[b];
        for (std::size_t gi = 0; gi < count; ++gi) {
          const std::size_t g = g0 + gi;
          if (x_norm[gi] < 0.0) {
            wb[g] = 0.0;
            continue;
          }
          const double cs = dot_snr[gi] / (snr_norms[b] * x_norm[gi]);
          const double cr = dot_rssi[gi] / (rssi_norms[b] * x_norm[gi]);
          wb[g] = (cs * cs) * (cr * cr);
        }
      }
    }
  }
  return out;
}

std::vector<CorrelationEngine::Path> CorrelationEngine::matching_pursuit(
    std::span<const SectorReading> readings, int max_paths, double min_score,
    double min_separation_deg, bool separate_in_azimuth) const {
  TALON_EXPECTS(matrix_.domain() == CorrelationDomain::kLinear);
  TALON_EXPECTS(max_paths >= 1);
  TALON_EXPECTS(min_score > 0.0 && min_score <= 1.0);
  TALON_EXPECTS(min_separation_deg > 0.0);

  // Linear-power probe vector over the usable sectors, with the firmware
  // reporting floor subtracted: clamped-at-floor readings otherwise add a
  // DC component that correlates with all-floor (unmeasurable) directions.
  const double floor_lin = db_to_linear(kSnrReportingFloorDb);
  ProbeVectors probes = collect_probes(readings, true, false);
  const std::vector<int>& slots = probes.slots;
  std::vector<double>& residual = probes.snr;
  for (double& v : residual) v = std::max(0.0, v - floor_lin);
  TALON_EXPECTS(residual.size() >= 2);
  double initial_power = 0.0;
  for (double v : residual) initial_power += v;
  TALON_EXPECTS(initial_power > 0.0);

  // The floored dictionary is fixed across iterations. It is materialized
  // during the first scan (fused with the first dot pass, so a one-path
  // pursuit never pays a separate precompute) and reused by every later
  // round instead of re-flooring and renormalizing each point. A one-path
  // pursuit has no later round, so it skips the stores entirely.
  const std::size_t points = matrix_.points();
  const std::size_t m_count = slots.size();
  const bool keep_dictionary = max_paths > 1;
  std::vector<double> floored;
  std::vector<double> floored_norm_sq(points);
  bool dictionary_ready = false;

  const std::vector<Direction>& directions = matrix_.directions();
  // Grid points within min_separation of an already extracted path;
  // extended after each extraction instead of being recomputed per point
  // per iteration.
  std::vector<bool> masked(points, false);

  std::vector<Path> paths;
  for (int k = 0; k < max_paths; ++k) {
    // Correlate the residual against every unmasked grid direction.
    double residual_norm_sq = 0.0;
    for (double v : residual) residual_norm_sq += v * v;
    if (residual_norm_sq <= 0.0) break;
    const double residual_norm = std::sqrt(residual_norm_sq);

    double best_corr = -1.0;
    double best_dot = 0.0;
    std::size_t best_g = 0;
    if (!dictionary_ready) {
      // First round: nothing is masked yet; floor the matrix rows on the
      // fly, record them when a later round will reuse them, and fold the
      // dot product into the same pass.
      if (keep_dictionary) floored.resize(points * m_count);
      for (std::size_t g = 0; g < points; ++g) {
        const std::span<const double> row = matrix_.point(g);
        double* fx = keep_dictionary ? floored.data() + g * m_count : nullptr;
        double dot = 0.0;
        double norm_sq = 0.0;
        for (std::size_t m = 0; m < m_count; ++m) {
          const double x =
              std::max(0.0, row[static_cast<std::size_t>(slots[m])] - floor_lin);
          if (fx) fx[m] = x;
          dot += residual[m] * x;
          norm_sq += x * x;
        }
        floored_norm_sq[g] = norm_sq;
        if (norm_sq <= 0.0) continue;
        const double c = dot / (residual_norm * std::sqrt(norm_sq));
        if (c > best_corr) {
          best_corr = c;
          best_dot = dot;
          best_g = g;
        }
      }
      dictionary_ready = true;
    } else {
      for (std::size_t g = 0; g < points; ++g) {
        if (masked[g]) continue;
        const double* fx = floored.data() + g * m_count;
        double dot = 0.0;
        for (std::size_t m = 0; m < m_count; ++m) {
          dot += residual[m] * fx[m];
        }
        const double x_norm_sq = floored_norm_sq[g];
        if (x_norm_sq <= 0.0) continue;
        const double c = dot / (residual_norm * std::sqrt(x_norm_sq));
        if (c > best_corr) {
          best_corr = c;
          best_dot = dot;
          best_g = g;
        }
      }
    }
    if (best_corr < min_score) break;

    // Subtract the explained component: residual -= alpha * x, with alpha
    // the least-squares projection (powers are additive, so this is the
    // path's contribution).
    std::array<double, 64> row_buf;
    std::vector<double> heap_buf;
    const double* fx;
    if (keep_dictionary) {
      fx = floored.data() + best_g * m_count;
    } else {
      // Dictionary was not kept: refloor the single winning row.
      const std::span<const double> row = matrix_.point(best_g);
      double* dst = row_buf.data();
      if (m_count > row_buf.size()) {
        heap_buf.resize(m_count);
        dst = heap_buf.data();
      }
      for (std::size_t m = 0; m < m_count; ++m) {
        dst[m] = std::max(0.0, row[static_cast<std::size_t>(slots[m])] - floor_lin);
      }
      fx = dst;
    }
    const double alpha = best_dot / floored_norm_sq[best_g];
    double explained = 0.0;
    for (std::size_t m = 0; m < m_count; ++m) {
      const double removed = std::min(residual[m], alpha * fx[m]);
      explained += removed;
      residual[m] -= removed;
    }
    const Direction found = directions[best_g];
    if (k + 1 < max_paths) {  // the mask only gates future scans
      for (std::size_t g = 0; g < points; ++g) {
        if (masked[g]) continue;
        const double separation =
            separate_in_azimuth
                ? azimuth_distance_deg(directions[g].azimuth_deg, found.azimuth_deg)
                : angular_separation_deg(directions[g], found);
        if (separation < min_separation_deg) masked[g] = true;
      }
    }
    paths.push_back(Path{
        .direction = found,
        .score = best_corr * best_corr,  // report Eq. 2 style squared corr
        .explained_power = explained / initial_power,
    });
  }
  return paths;
}

}  // namespace talon
