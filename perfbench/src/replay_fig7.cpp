// replay-fig7: estimation_error_analysis + selection_quality_analysis over
// the paper-resolution conference recording (49 poses x 30 sweeps = 1470
// records) at the 16 probe counts 4..34 -- core/correlation through the
// full-surface path (combined_surface_batch).
//
// The timed unit is both analyses at every probe count over one pose's 30
// sweeps, on one thread: the same (probe count, pose) cells, subsets and
// kernel calls the whole-recording analysis makes (a cell's subset is drawn
// from its (probe count, pose) substream), in 49 units of equal size, each
// paired with a host-speed probe (harness.hpp). On one thread the figure is
// the kernel's and not the host scheduler's. The whole recording is then
// analysed at N threads and serially to check the rows.
#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_set>

#include "perfbench/src/harness.hpp"
#include "src/antenna/codebook.hpp"
#include "src/common/rng.hpp"
#include "src/core/css.hpp"
#include "src/core/selector.hpp"
#include "src/core/subset_policy.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/scenario.hpp"

namespace perfbench {
namespace {

/// Substream coordinate of the benchmark's own draws (which probe counts
/// to check serially, the kernel probe's subset), clear of the analyses'
/// (probe count, pose) coordinates.
constexpr std::uint64_t kCheckCoord = 1ull << 40;

struct Rows {
  std::vector<talon::EstimationErrorRow> error;
  std::vector<talon::SelectionQualityRow> quality;
};

bool same_box(const talon::BoxStats& a, const talon::BoxStats& b) {
  return a.median == b.median && a.q25 == b.q25 && a.q75 == b.q75 &&
         a.whisker_low == b.whisker_low && a.whisker_high == b.whisker_high;
}

bool same_row(const talon::EstimationErrorRow& a, const talon::EstimationErrorRow& b) {
  return a.probes == b.probes && a.samples == b.samples &&
         same_box(a.azimuth_error, b.azimuth_error) &&
         same_box(a.elevation_error, b.elevation_error);
}

bool same_row(const talon::SelectionQualityRow& a, const talon::SelectionQualityRow& b) {
  return a.probes == b.probes && a.css_stability == b.css_stability &&
         a.ssw_stability == b.ssw_stability && a.css_snr_loss_db == b.css_snr_loss_db &&
         a.ssw_snr_loss_db == b.ssw_snr_loss_db;
}

bool same_rows(const Rows& a, const Rows& b) {
  return a.error.size() == b.error.size() && a.quality.size() == b.quality.size() &&
         std::equal(a.error.begin(), a.error.end(), b.error.begin(),
                    [](const auto& x, const auto& y) { return same_row(x, y); }) &&
         std::equal(a.quality.begin(), a.quality.end(), b.quality.begin(),
                    [](const auto& x, const auto& y) { return same_row(x, y); });
}

struct Inputs {
  talon::PatternTable table;
  std::vector<talon::SweepRecord> records;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.table = measured_pattern_table(seed);
  talon::Scenario conference = talon::make_conference_scenario(kDutSeed);
  talon::RecordingConfig rec;
  for (int i = 0; i <= 48; ++i) rec.head_azimuths_deg.push_back(-60.0 + 2.5 * i);
  rec.sweeps_per_pose = 30;
  rec.seed = seed;
  Scope span("sim.experiment.record_sweeps");
  in.records = talon::record_sweeps(conference, rec);
  return in;
}

/// Both analyses at `probe_counts`; error and quality seeds derive from
/// `seed`. `request` tags the spans of a traced call (the pose of a unit).
Rows analyze(const std::vector<talon::SweepRecord>& records,
             talon::CssSelector& selector, const std::vector<std::size_t>& probe_counts,
             std::uint64_t seed, int threads, std::uint64_t request = 0) {
  const talon::RandomSubsetPolicy policy;
  const talon::ReplayOptions replay{.threads = threads, .batch = true};
  Rows rows;
  {
    Scope span("sim.experiment.estimation_error", request);
    rows.error = talon::estimation_error_analysis(records, selector, probe_counts, policy,
                                                  seed + 1, replay);
  }
  {
    Scope span("sim.experiment.selection_quality", request);
    rows.quality = talon::selection_quality_analysis(records, selector, probe_counts,
                                                     policy, seed + 2, replay);
  }
  return rows;
}

}  // namespace

WorkloadResult run_replay_fig7(const RunOptions& options) {
  WorkloadResult result;
  const int threads = options.nproc;
  SetupTimes setup;
  const Inputs in = timed_setups(5, setup, [&] { return make_inputs(options.seed); });
  result.set_e2e("setup_s", setup.reference_s(), "s");
  result.details["host.setup_wall_s"] = median(setup.wall_s);
  const bool traced = tracer().enabled();
  tracer().set_active(false);

  std::vector<std::size_t> probe_counts;
  for (std::size_t m = 4; m <= 34; m += 2) probe_counts.push_back(m);
  std::map<int, std::vector<talon::SweepRecord>> by_pose;
  for (const talon::SweepRecord& record : in.records) {
    by_pose[record.pose_index].push_back(record);
  }
  std::vector<std::vector<talon::SweepRecord>> poses;
  for (auto& [pose, records] : by_pose) poses.push_back(std::move(records));
  const talon::CompressiveSectorSelector css(fresh_assets(in.table));
  talon::CssSelector selector(css);
  const std::uint64_t selections_per_unit = 2 * poses.front().size() * probe_counts.size();

  // --- timed loop: pose units in turn on one thread, every pose at least
  // once per half; a traced run spends the second half of its budget with
  // spans on.
  std::vector<double> unit_ms[2];
  std::vector<double> probes[2];
  std::vector<Rows> first(poses.size());
  for (int half = 0; half < (traced ? 2 : 1); ++half) {
    tracer().set_active(half == 1);
    const double budget_s = traced ? 0.5 * options.seconds : options.seconds;
    const auto loop_start = Clock::now();
    for (std::size_t call = 0;
         call < poses.size() || seconds_since(loop_start) < budget_s; ++call) {
      const std::size_t pose = call % poses.size();
      probes[half].push_back(probe_ms());
      const auto start = Clock::now();
      const Rows rows =
          analyze(poses[pose], selector, probe_counts, options.seed, 1, pose);
      unit_ms[half].push_back(seconds_since(start) * 1e3);
      if (first[pose].error.empty()) {
        first[pose] = rows;
      } else {
        result.check(same_rows(rows, first[pose]), "repeated pose unit reproduces its first");
      }
      result.attempted += selections_per_unit;
    }
  }
  tracer().set_active(false);
  result.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  const std::vector<double>& untraced = unit_ms[0];
  const double unit_ref_ms = reference_median(untraced, probes[0]);
  const double per_s = static_cast<double>(selections_per_unit) * 1e3 / unit_ref_ms;
  result.set_e2e("work_rate", per_s, "1/s");
  result.details["replay.unit_calls"] = static_cast<double>(untraced.size());
  result.details["replay.unit_wall_ms.p50"] = median(untraced);
  result.details["host.probe_ms.p50"] = median(probes[0]);
  std::printf("replay-fig7: %zu poses x %zu probe counts on 1 thread: %.0f selections/s "
              "over %zu pose units (p50 %.1f ms, %.1f ms on the reference host); "
              "setup %.3f s\n",
              poses.size(), probe_counts.size(), per_s, untraced.size(), median(untraced),
              unit_ref_ms, setup.reference_s());

  // --- correctness: the whole recording at N threads, and two probe counts
  // (chosen by the seed) serially, each on fresh assets ---------------------
  const talon::CompressiveSectorSelector parallel_css(fresh_assets(in.table));
  talon::CssSelector parallel_selector(parallel_css);
  const Rows reference =
      analyze(in.records, parallel_selector, probe_counts, options.seed, threads);
  for (std::size_t i = 0; i < probe_counts.size(); ++i) {
    std::size_t pose_samples = 0;
    for (const Rows& rows : first) pose_samples += rows.error[i].samples;
    result.check(reference.error[i].samples == pose_samples,
                 "pose units cover the recording's samples (m = " +
                     std::to_string(probe_counts[i]) + ")");
  }
  talon::Rng pick(
      talon::substream_seed(options.seed, talon::streams::kError, kCheckCoord));
  std::vector<std::size_t> check_counts;
  const int counts = static_cast<int>(probe_counts.size());
  for (int i : pick.sample_without_replacement(counts, 2)) {
    check_counts.push_back(probe_counts[static_cast<std::size_t>(i)]);
  }
  std::sort(check_counts.begin(), check_counts.end());
  const talon::CompressiveSectorSelector serial_css(fresh_assets(in.table));
  talon::CssSelector serial_selector(serial_css);
  auto start = Clock::now();
  const Rows serial = analyze(in.records, serial_selector, check_counts, options.seed, 1);
  const double serial_s = seconds_since(start);
  Rows expected;
  for (std::size_t i = 0; i < probe_counts.size(); ++i) {
    if (probe_counts[i] == check_counts[0] || probe_counts[i] == check_counts[1]) {
      expected.error.push_back(reference.error[i]);
      expected.quality.push_back(reference.quality[i]);
    }
  }
  result.check(same_rows(serial, expected), "rows identical to the serial run (m = " +
                                                std::to_string(check_counts[0]) + ", " +
                                                std::to_string(check_counts[1]) + ")");
  std::uint64_t samples = 0;
  for (const auto& row : reference.error) samples += row.samples;
  result.counters["sim.experiment.error_samples"] = samples;
  result.counters["sim.experiment.rows"] =
      reference.error.size() + reference.quality.size();
  result.counters["sim.experiment.records"] = in.records.size();
  if (!traced) return result;

  tracer().set_active(true);
  const auto median_s = [](const char* span) {
    return median(tracer().durations_us(span)) / 1e6;
  };
  // A whole recording's share of each analysis: the median traced pose
  // unit's, times the number of poses.
  const double pose_units = static_cast<double>(poses.size());
  result.set_layer("sim.experiment.estimation_error_s",
                   median_s("sim.experiment.estimation_error") * pose_units, "s");
  result.set_layer("sim.experiment.selection_quality_s",
                   median_s("sim.experiment.selection_quality") * pose_units, "s");
  result.set_layer("sim.experiment.record_sweeps_s",
                   median_s("sim.experiment.record_sweeps"), "s");
  result.set_layer("bench.trace.overhead_pct",
                   (reference_median(unit_ms[1], probes[1]) / unit_ref_ms - 1.0) * 100.0,
                   "%");
  const auto cache = css.assets()->engine().response_matrix().cache_stats();
  result.set_panel_cache(cache.hits, cache.misses);

  // Kernel alone: one replay cell's batched surfaces (a pose's 30 sweeps
  // restricted to a 14-probe subset).
  {
    const std::vector<int>& tx = talon::talon_tx_sector_ids();
    talon::Rng rng(
        talon::substream_seed(options.seed, talon::streams::kQuality, kCheckCoord));
    std::unordered_set<int> subset;
    for (int i : rng.sample_without_replacement(static_cast<int>(tx.size()), 14)) {
      subset.insert(tx[static_cast<std::size_t>(i)]);
    }
    std::vector<std::vector<talon::SectorReading>> sweeps;
    for (const talon::SweepRecord& record : in.records) {
      if (record.pose_index != in.records.front().pose_index) continue;
      auto& sweep = sweeps.emplace_back();
      for (const talon::SectorReading& r : record.measurement.readings) {
        if (subset.contains(r.sector_id)) sweep.push_back(r);
      }
    }
    const std::vector<std::span<const talon::SectorReading>> views(sweeps.begin(),
                                                                   sweeps.end());
    std::vector<talon::Grid2D> first;
    bool repeated = true;
    for (int call = 0; call < 50; ++call) {
      std::vector<talon::Grid2D> surfaces;
      {
        Scope span("core.correlation.surface_batch", static_cast<std::uint64_t>(call));
        surfaces = css.assets()->engine().combined_surface_batch(views);
      }
      if (call == 0) first = surfaces;
      for (std::size_t i = 0; i < surfaces.size(); ++i) {
        repeated = repeated && surfaces[i].values() == first[i].values();
      }
    }
    result.check(repeated, "batched surfaces repeat bit for bit");
    result.set_layer("core.correlation.surface_batch_us",
                     median_s("core.correlation.surface_batch") * 1e6, "us");
  }

  // Executor: dispatch at one call's cell count, and the speedup of the
  // two checked probe counts at N threads over the serial run above.
  result.set_layer("common.parallel.dispatch_us",
                   parallel_dispatch_us(threads, probe_counts.size() * poses.size(), 100),
                   "us");
  start = Clock::now();
  analyze(in.records, selector, check_counts, options.seed, threads);
  result.set_layer("common.parallel.speedup", serial_s / seconds_since(start), "x");
  return result;
}

}  // namespace perfbench
