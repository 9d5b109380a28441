// Serving-layer benchmark: sustained ingest throughput and selection
// latency of ServeDaemon (driver/serve.hpp) at 1k and 10k headless
// links, with a PatternAssets hot swap published MID-RUN.
//
// What the numbers must show (ISSUE acceptance): the async path sustains
// >= 10k reports/sec at 1k links with a finite p99 (from the serve
// latency histogram -- the log-spaced bucket bound, not a wall-clock
// sort), and a hot swap while the consumer runs drops NOTHING: every
// submitted report is processed exactly once and every link lazily
// rebinds to the new generation without a reader stall. A final gate
// reruns a small fleet at several worker thread counts and verifies the
// complete per-link session state -- selections, counters, RNG streams --
// is bit-identical. Timings feed BENCH_serve.json.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/common/angles.hpp"
#include "src/common/grid.hpp"
#include "src/common/rng.hpp"
#include "src/antenna/pattern.hpp"
#include "src/driver/serve.hpp"

using namespace talon;

namespace {

/// Peak resident set size so far [KiB] (high-water mark, monotonic).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Compact synthetic codebook for fleet-scale runs: 16 Gaussian lobes on
/// a moderate grid. The standard measured table would work too, but its
/// per-link workspace footprint is what caps the 10k-link row, and the
/// serving layer's costs under test (queue, reorder, rebind, histogram)
/// are table-size independent.
PatternTable serve_table() {
  const AngularGrid grid{make_axis(-60.0, 60.0, 2.0), make_axis(0.0, 28.0, 4.0)};
  PatternTable table;
  for (int s = 0; s < 16; ++s) {
    const Direction peak{-56.0 + 7.5 * s, s % 2 == 0 ? 4.0 : 20.0};
    Grid2D pattern(grid);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
        const Direction d = grid.direction(ia, ie);
        const double sep = angular_separation_deg(d, peak);
        const double db = 10.0 - 12.0 * (sep / 20.0) * (sep / 20.0);
        pattern.set(ia, ie, std::max(db, -7.0));
      }
    }
    table.add(s + 1, std::move(pattern));
  }
  return table;
}

std::shared_ptr<const PatternAssets> serve_assets(double tilt_db = 0.0) {
  PatternTable table = serve_table();
  if (tilt_db != 0.0) {
    // Per-sector tilt: a genuinely different codebook for the hot swap.
    PatternTable warped;
    for (int id : table.ids()) {
      Grid2D pattern = table.pattern(id);
      for (double& v : pattern.values()) v += tilt_db * id / 16.0;
      warped.add(id, std::move(pattern));
    }
    table = std::move(warped);
  }
  const AngularGrid grid = table.grid();
  return std::make_shared<const PatternAssets>(std::move(table), grid,
                                               CorrelationDomain::kLinear);
}

/// Deterministic report for (link, round): streams::kServeReport
/// substreams, independent of submission order and thread count.
std::vector<SectorReading> make_report(std::uint64_t seed, int link,
                                       std::uint64_t round,
                                       const PatternTable& table) {
  Rng rng(substream_seed(seed, streams::kServeReport,
                         static_cast<std::uint64_t>(link), round));
  const std::vector<int> ids = table.ids();
  const std::vector<int> picks =
      rng.sample_without_replacement(static_cast<int>(ids.size()), 8);
  const Direction truth{rng.uniform(-55.0, 55.0), rng.uniform(0.0, 26.0)};
  std::vector<SectorReading> out;
  out.reserve(picks.size());
  for (int i : picks) {
    const int id = ids[static_cast<std::size_t>(i)];
    const double v = table.sample_db(id, truth) + rng.normal(0.3);
    out.push_back(SectorReading{.sector_id = id, .snr_db = v, .rssi_dbm = v});
  }
  return out;
}

constexpr std::uint64_t kSeed = 8400;

struct ThroughputRow {
  int links;
  std::uint64_t reports;
  double reports_per_sec;
  std::uint64_t p50_us;
  std::uint64_t p99_us;
  std::uint64_t rebinds;
  double rss_mib;
};

/// One throughput run: pre-synthesized reports, a running consumer, a
/// hot swap once half the stream is processed. Returns false on any
/// acceptance violation.
bool run_throughput(int links, std::uint64_t rounds, int threads,
                    ThroughputRow& row) {
  auto assets = serve_assets();
  ServeConfig config;
  config.queue_capacity = 8192;
  config.threads = threads;
  ServeDaemon serve(assets, CssDaemonConfig{}, config);
  for (int id = 0; id < links; ++id) {
    serve.add_link(id, Rng(substream_seed(kSeed, streams::kNetworkSession,
                                          static_cast<std::uint64_t>(id))));
  }

  // Synthesize outside the timed window: the bench measures the serving
  // layer, not the report generator.
  std::vector<std::vector<SectorReading>> reports;
  reports.reserve(static_cast<std::size_t>(links) * rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int id = 0; id < links; ++id) {
      reports.push_back(make_report(kSeed, id, r, assets->patterns()));
    }
  }
  const std::uint64_t total = reports.size();

  serve.start();
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&] {
    std::uint64_t i = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (int id = 0; id < links; ++id) {
        serve.submit(id, std::move(reports[i++]));
      }
    }
  });
  // Hot swap mid-run, while producer and consumer are both live.
  auto recalibrated = serve_assets(3.0);
  while (serve.processed() + serve.dropped() < total / 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  serve.swap_assets(recalibrated);
  producer.join();
  // A quarantined link's reports are dropped, not processed; count them
  // as settled so the wait ends and the check below reports them.
  while (serve.processed() + serve.dropped() < total) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto t1 = std::chrono::steady_clock::now();
  serve.stop();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const LatencyHistogram& latency =
      serve.telemetry().histogram("serve_selection_latency_us");
  bool saturated = false;
  row.links = links;
  row.reports = total;
  row.reports_per_sec = static_cast<double>(total) / secs;
  row.p50_us = latency.quantile_bound_us(0.50, &saturated);
  row.p99_us = latency.quantile_bound_us(0.99, &saturated);
  row.rebinds = serve.rebinds();
  row.rss_mib = static_cast<double>(peak_rss_kib()) / 1024.0;

  // Acceptance: zero drops across the swap, every link on the new
  // generation, a finite latency distribution.
  if (serve.processed() != serve.submitted() || serve.submitted() != total) {
    std::printf("FAILED: %llu submitted, %llu processed (lost reports)\n",
                static_cast<unsigned long long>(serve.submitted()),
                static_cast<unsigned long long>(serve.processed()));
    return false;
  }
  if (serve.rejected() != 0) {
    std::printf("FAILED: blocking submits must never count rejections\n");
    return false;
  }
  if (serve.current_assets().get() != recalibrated.get() ||
      serve.assets_epoch() != 1) {
    std::printf("FAILED: swap not published\n");
    return false;
  }
  std::uint64_t session_rounds = 0;
  for (int id = 0; id < links; ++id) {
    session_rounds += serve.daemon().session(id).rounds();
  }
  if (session_rounds != total) {
    std::printf("FAILED: session rounds %llu != %llu reports\n",
                static_cast<unsigned long long>(session_rounds),
                static_cast<unsigned long long>(total));
    return false;
  }
  if (latency.count() != total || saturated) {
    std::printf("FAILED: latency histogram incomplete or saturated\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  bench::print_header("Serving layer: async ingest at fleet scale",
                      "Sec. 7 deployment regime", run.fidelity);
  const int threads = run.threads;

  // --- throughput + hot swap at 1k and 10k links ----------------------------
  std::printf("ingest throughput (blocking submit, consumer running, hot swap"
              " at 50%%):\n");
  std::printf("  links | reports | reports/s | p50 [us] | p99 [us] | rebinds"
              " | peak RSS [MiB]\n");
  std::printf("--------+---------+-----------+----------+----------+---------"
              "+---------------\n");
  const std::uint64_t rounds_1k =
      run.fidelity == bench::Fidelity::kFull ? 40 : 20;
  const std::uint64_t rounds_10k =
      run.fidelity == bench::Fidelity::kFull ? 5 : 3;
  bool ok = true;
  for (const auto& [links, rounds] :
       {std::pair<int, std::uint64_t>{1000, rounds_1k}, {10000, rounds_10k}}) {
    ThroughputRow row{};
    ok = run_throughput(links, rounds, threads, row) && ok;
    std::printf("%7d | %7llu | %9.0f | %8llu | %8llu | %7llu | %13.1f\n",
                row.links, static_cast<unsigned long long>(row.reports),
                row.reports_per_sec,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us),
                static_cast<unsigned long long>(row.rebinds), row.rss_mib);
    if (links == 1000 && row.reports_per_sec < 10000.0) {
      std::printf("FAILED: < 10k reports/sec at 1k links\n");
      ok = false;
    }
  }
  if (!ok) return 1;

  // --- cross-thread bit-identity gate ---------------------------------------
  // The full stateful configuration (adaptive + tracking + degradation)
  // on a small fleet: identical per-link report sequences must leave
  // identical session state at ANY worker thread count.
  std::printf("\ncross-thread determinism (64 links, 10 rounds, stateful"
              " sessions):\n");
  std::printf("threads | drained | bit-identical to serial\n");
  std::printf("--------+---------+------------------------\n");
  CssDaemonConfig stateful;
  stateful.probes = 8;
  stateful.adaptive = true;
  stateful.track_path = true;
  stateful.degradation.enabled = true;
  std::vector<LinkSessionState> reference;
  bool identical = true;
  for (const int t : {1, 2, 7}) {
    auto assets = serve_assets();
    ServeConfig config;
    config.threads = t;
    config.measure_latency = false;
    ServeDaemon serve(assets, stateful, config);
    for (int id = 0; id < 64; ++id) {
      serve.add_link(id, Rng(substream_seed(kSeed, streams::kNetworkSession,
                                            static_cast<std::uint64_t>(id))));
    }
    for (std::uint64_t r = 0; r < 10; ++r) {
      for (int id = 0; id < 64; ++id) {
        serve.submit(id, make_report(kSeed, id, r, assets->patterns()));
      }
    }
    const std::size_t drained = serve.drain_all();
    bool same = true;
    if (t == 1) {
      for (int id = 0; id < 64; ++id) {
        reference.push_back(serve.daemon().session(id).export_state());
      }
    } else {
      for (int id = 0; id < 64; ++id) {
        same = same && serve.daemon().session(id).export_state() ==
                           reference[static_cast<std::size_t>(id)];
      }
      identical = identical && same;
    }
    std::printf("%7d | %7zu | %s\n", t, drained,
                t == 1 ? "(baseline)" : (same ? "yes" : "NO"));
  }
  if (!identical) {
    std::printf("\nFAILED: thread count changed the session state\n");
    return 1;
  }
  std::printf("\nall thread counts reproduce the serial session state.\n");
  return 0;
}
