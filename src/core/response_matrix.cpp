#include "src/core/response_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/error.hpp"
#include "src/common/units.hpp"

namespace talon {

namespace {

/// Quantize one tile's abs_norm_max row to the int16 screening sidecar:
/// pick the largest power-of-two scale that still resolves the row's
/// maximum in <= 15 bits, then round every level UP. The round-up plus
/// the exactness of (small integer) x (power of two) gives
/// q[m] * scale >= u[m] exactly, the over-estimation the screening bound's
/// soundness rests on. An all-zero row quantizes to scale 0 / levels 0.
double quantize_screen_row(const double* u, std::size_t m, std::uint16_t* q) {
  double u_max = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) u_max = std::max(u_max, u[mm]);
  if (u_max <= 0.0) {
    std::fill(q, q + m, std::uint16_t{0});
    return 0.0;
  }
  // u_max = f * 2^exp with f in [0.5, 1): scale = 2^(exp - 15) makes
  // ceil(u_max / scale) = ceil(f * 2^15) <= 2^15, comfortably in uint16.
  int exp = 0;
  (void)std::frexp(u_max, &exp);
  const double scale = std::ldexp(1.0, exp - 15);
  const double inv_scale = std::ldexp(1.0, 15 - exp);  // power of two: exact
  for (std::size_t mm = 0; mm < m; ++mm) {
    const double level = std::ceil(u[mm] * inv_scale);
    q[mm] = static_cast<std::uint16_t>(level);
    // The sidecar over-estimates by construction; keep the contract loud
    // in debug builds (the quantized-screening property test pins it too).
    assert(static_cast<double>(q[mm]) * scale >= u[mm]);
  }
  return scale;
}

/// The calling thread's scratch panel and the matrix it was built for
/// (0: none, or a build in progress).
struct ScratchPanel {
  std::uint64_t matrix_id{0};
  std::shared_ptr<SubsetPanel> panel;
};

ScratchPanel& thread_scratch() {
  thread_local ScratchPanel scratch;
  return scratch;
}

std::atomic<std::uint64_t> g_next_matrix_id{1};

/// Heap bytes of one panel's arrays (the cache's memory budget unit).
std::size_t panel_bytes(const SubsetPanel& p) {
  const auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(p.slots) + bytes(p.values) + bytes(p.norms_sq) +
         bytes(p.fine_abs_norm_max) + bytes(p.fine_sqrt_min_norm) +
         bytes(p.coarse_abs_norm_max) + bytes(p.coarse_sqrt_min_norm) +
         bytes(p.fine_q) + bytes(p.fine_q_scale) + bytes(p.coarse_q) +
         bytes(p.coarse_q_scale);
}

/// 64-bit fingerprint of a slot sequence (FNV-1a over length and slots,
/// then a splitmix64 finalizer so the bucket bits are well mixed); never 0,
/// which marks a free way in the sighting table.
std::uint64_t sequence_fingerprint(std::span<const int> slots) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(slots.size());
  for (const int s : slots) mix(static_cast<std::uint32_t>(s));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h | 1;
}

}  // namespace

ResponseMatrix::ResponseMatrix(const PatternTable& patterns, AngularGrid grid,
                               CorrelationDomain domain)
    : grid_(grid),
      domain_(domain),
      id_(g_next_matrix_id.fetch_add(1, std::memory_order_relaxed)) {
  TALON_EXPECTS(!patterns.empty());
  sector_ids_ = patterns.ids();
  const std::size_t points = grid_.size();
  const std::size_t slots = sector_ids_.size();

  values_.resize(points * slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::vector<double> sampled = patterns.sample_grid_db(sector_ids_[s], grid_);
    for (std::size_t g = 0; g < points; ++g) {
      const double db = sampled[g];
      values_[g * slots + s] =
          domain_ == CorrelationDomain::kLinear ? db_to_linear(db) : db;
    }
  }

  directions_.reserve(points);
  for (std::size_t ie = 0; ie < grid_.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid_.azimuth.count; ++ia) {
      directions_.push_back(grid_.direction(ia, ie));
    }
  }
}

int ResponseMatrix::slot(int sector_id) const {
  const auto it = std::lower_bound(sector_ids_.begin(), sector_ids_.end(), sector_id);
  if (it == sector_ids_.end() || *it != sector_id) return -1;
  return static_cast<int>(it - sector_ids_.begin());
}

void ResponseMatrix::build_panel(std::span<const int> slots, SubsetPanel& out) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = slots.size();
  TALON_EXPECTS(m >= 1);
  for (const int s : slots) {
    TALON_EXPECTS(s >= 0 && static_cast<std::size_t>(s) < sector_ids_.size());
  }

  out.slots.assign(slots.begin(), slots.end());
  const std::size_t points = grid_.size();
  out.points = points;
  const std::size_t fine = (points + kTile - 1) / kTile;
  out.fine_tiles = fine;
  out.coarse_tiles =
      (fine + SubsetPanel::kFinePerCoarse - 1) / SubsetPanel::kFinePerCoarse;

  // Every element below is overwritten, so a reused panel's stale
  // contents never leak into the new build.
  out.values.resize(fine * kTile * m);
  // The allocator promises the base pointer; the static_assert in the
  // header promises every row offset is a multiple of the alignment.
  assert(reinterpret_cast<std::uintptr_t>(out.values.data()) %
             SubsetPanel::kValuesAlignment ==
         0);
  out.norms_sq.resize(points);
  out.fine_abs_norm_max.resize(fine * m);
  out.fine_sqrt_min_norm.resize(fine);

  // One fused pass per fine tile, all of it on the tile's L1-resident
  // rows. Per point, the norm sums x*x in sequence order from 0.0 (the
  // Eq. 2 denominator every evaluator reproduces). A zero-norm point gets
  // inv 0, so its shares are 0 and never raise a maximum, exactly as if
  // it were skipped; the zero-padded tail points likewise. Maxima are
  // exact in any order, so each row reduces over per-lane partials.
  const std::size_t stride = sector_ids_.size();
  alignas(SubsetPanel::kValuesAlignment) double norm[kTile];
  alignas(SubsetPanel::kValuesAlignment) double inv[kTile];
  for (std::size_t t = 0; t < fine; ++t) {
    const std::size_t g0 = t * kTile;
    const std::size_t count = std::min(kTile, points - g0);
    const double* rows = values_.data() + g0 * stride;
    double* block = out.values.data() + t * m * kTile;
    std::fill(norm, norm + kTile, 0.0);
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double* col = rows + static_cast<std::size_t>(slots[mm]);
      double* dst = block + mm * kTile;
      for (std::size_t gi = 0; gi < count; ++gi) dst[gi] = col[gi * stride];
      std::fill(dst + count, dst + kTile, 0.0);
      for (std::size_t gi = 0; gi < kTile; ++gi) norm[gi] += dst[gi] * dst[gi];
    }
    std::copy(norm, norm + count, out.norms_sq.data() + g0);

    double min_pos = kInf;
    for (std::size_t gi = 0; gi < kTile; ++gi) {
      const double n = norm[gi];
      const bool positive = n > 0.0;
      inv[gi] = positive ? 1.0 / std::sqrt(n) : 0.0;
      const double candidate = positive ? n : kInf;
      min_pos = candidate < min_pos ? candidate : min_pos;
    }
    out.fine_sqrt_min_norm[t] = min_pos == kInf ? kInf : std::sqrt(min_pos);

    double* u = out.fine_abs_norm_max.data() + t * m;
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double* row = block + mm * kTile;
      constexpr std::size_t kLanes = 4;
      double lane[kLanes] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t gi = 0; gi < kTile; gi += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double share = std::abs(row[gi + l]) * inv[gi + l];
          lane[l] = share > lane[l] ? share : lane[l];
        }
      }
      const double lo = lane[1] > lane[0] ? lane[1] : lane[0];
      const double hi = lane[3] > lane[2] ? lane[3] : lane[2];
      u[mm] = hi > lo ? hi : lo;
    }
  }

  out.coarse_abs_norm_max.resize(out.coarse_tiles * m);
  out.coarse_sqrt_min_norm.resize(out.coarse_tiles);
  for (std::size_t c = 0; c < out.coarse_tiles; ++c) {
    const std::size_t t0 = c * SubsetPanel::kFinePerCoarse;
    const std::size_t t1 = std::min(t0 + SubsetPanel::kFinePerCoarse, fine);
    for (std::size_t mm = 0; mm < m; ++mm) {
      double hi = 0.0;
      for (std::size_t t = t0; t < t1; ++t) {
        hi = std::max(hi, out.fine_abs_norm_max[t * m + mm]);
      }
      out.coarse_abs_norm_max[c * m + mm] = hi;
    }
    double root = kInf;
    for (std::size_t t = t0; t < t1; ++t) {
      root = std::min(root, out.fine_sqrt_min_norm[t]);
    }
    out.coarse_sqrt_min_norm[c] = root;
  }

  out.fine_q.resize(fine * m);
  out.fine_q_scale.resize(fine);
  for (std::size_t t = 0; t < fine; ++t) {
    out.fine_q_scale[t] = quantize_screen_row(out.fine_abs_norm_max.data() + t * m, m,
                                              out.fine_q.data() + t * m);
  }
  out.coarse_q.resize(out.coarse_tiles * m);
  out.coarse_q_scale.resize(out.coarse_tiles);
  for (std::size_t c = 0; c < out.coarse_tiles; ++c) {
    out.coarse_q_scale[c] = quantize_screen_row(out.coarse_abs_norm_max.data() + c * m,
                                                m, out.coarse_q.data() + c * m);
  }
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::find_cached(
    std::span<const int> slots) const {
  const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  const auto it = panel_cache_.find(slots);
  if (it == panel_cache_.end()) return nullptr;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::scratch_holding(
    std::span<const int> slots) const {
  const ScratchPanel& scratch = thread_scratch();
  if (scratch.matrix_id != id_ || !scratch.panel) return nullptr;
  const std::vector<int>& held = scratch.panel->slots;
  return std::equal(held.begin(), held.end(), slots.begin(), slots.end())
             ? scratch.panel
             : nullptr;
}

ResponseMatrix::Lease ResponseMatrix::retain(std::span<const int> slots) const {
  std::shared_ptr<const SubsetPanel> built;
  if (const std::shared_ptr<const SubsetPanel> held = scratch_holding(slots)) {
    // The thread's scratch panel already holds this sequence: promote a
    // copy instead of building again. The copy is sized exactly (the
    // scratch buffers may carry a larger build's capacity), and the
    // thread keeps its scratch buffers.
    built = std::make_shared<const SubsetPanel>(*held);
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto fresh = std::make_shared<SubsetPanel>();
    build_panel(slots, *fresh);
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    built = std::move(fresh);
  }

  const std::lock_guard<std::shared_mutex> lock(cache_mutex_);
  const auto it = panel_cache_.find(slots);
  if (it != panel_cache_.end()) return {it->second, true};  // lost the insert race
  const std::size_t bytes = panel_bytes(*built);
  const std::size_t cached_bytes = cached_bytes_.load(std::memory_order_relaxed);
  if (cached_bytes + bytes > kMaxCachedBytes) return {std::move(built), false};
  cached_bytes_.store(cached_bytes + bytes, std::memory_order_relaxed);
  panel_cache_.emplace(built->slots, built);
  return {std::move(built), true};
}

bool ResponseMatrix::first_sighting(std::span<const int> slots) const {
  const std::uint64_t fp = sequence_fingerprint(slots);
  std::atomic<std::uint64_t>* bucket =
      sightings_.data() + (fp >> 32) % kSightingBuckets * kSightingWays;
  for (std::size_t w = 0; w < kSightingWays; ++w) {
    std::uint64_t seen = fp;
    if (bucket[w].load(std::memory_order_relaxed) == fp &&
        bucket[w].compare_exchange_strong(seen, 0, std::memory_order_relaxed)) {
      return false;
    }
  }
  for (std::size_t w = 0; w < kSightingWays; ++w) {
    std::uint64_t free_way = 0;
    if (bucket[w].load(std::memory_order_relaxed) == 0 &&
        bucket[w].compare_exchange_strong(free_way, fp, std::memory_order_relaxed)) {
      return true;
    }
  }
  const std::uint32_t victim = sighting_victim_.fetch_add(1, std::memory_order_relaxed);
  bucket[victim % kSightingWays].store(fp, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::panel(
    std::span<const int> slots) const {
  if (std::shared_ptr<const SubsetPanel> hit = find_cached(slots)) return hit;
  return retain(slots).panel;
}

ResponseMatrix::Lease ResponseMatrix::lease(std::span<const int> slots,
                                            bool repeat) const {
  if (std::shared_ptr<const SubsetPanel> hit = find_cached(slots)) return {hit, true};
  const bool full = cached_bytes_.load(std::memory_order_relaxed) >= kMaxCachedBytes;
  if (!full && (repeat || !first_sighting(slots))) return retain(slots);

  // One-shot: build into the thread's scratch panel, in place unless a
  // lease still holds the previous build.
  if (std::shared_ptr<const SubsetPanel> held = scratch_holding(slots)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(held), false};
  }
  ScratchPanel& scratch = thread_scratch();
  if (!scratch.panel || scratch.panel.use_count() != 1) {
    scratch.panel = std::make_shared<SubsetPanel>();
  }
  scratch.matrix_id = 0;  // no valid contents until the build completes
  build_panel(slots, *scratch.panel);
  scratch.matrix_id = id_;
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  return {scratch.panel, false};
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::panel_if_warm(
    std::span<const int> slots) const {
  if (std::shared_ptr<const SubsetPanel> hit = find_cached(slots)) return hit;
  if (first_sighting(slots)) return nullptr;
  // Second sighting: this subset repeats, so the build amortizes.
  return retain(slots).panel;
}

std::shared_ptr<const std::vector<double>> ResponseMatrix::norms_sq(
    std::span<const int> slots) const {
  std::shared_ptr<const SubsetPanel> p = panel(slots);
  const std::vector<double>* norms = &p->norms_sq;
  return {std::move(p), norms};
}

std::size_t ResponseMatrix::cached_subset_count() const {
  const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  return panel_cache_.size();
}

}  // namespace talon
