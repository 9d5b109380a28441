// serve-fleet: the deployment path. An open-loop Poisson generator drives
// ServeDaemon with M=14-probe sweep reports for 1,000 headless links; a
// recalibrated PatternAssets generation is published mid-run.
//
// Latency is timed from each report's DUE time, so a stalled generator or
// daemon charges every report it delays. The generator is the only
// observer of completion: it busy-waits between sends and polls
// processed(); the k-th completion it sees is paired with the k-th
// submission. Reports of one drain cycle finish in an order the fan-out
// decides, so the pairing is exact per cycle in count and approximate
// within one drain cycle in which report it names.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "perfbench/src/harness.hpp"
#include "src/antenna/codebook.hpp"
#include "src/common/rng.hpp"
#include "src/core/correlation.hpp"
#include "src/core/subset_policy.hpp"
#include "src/driver/serve.hpp"

namespace perfbench {
namespace {

using talon::SectorReading;

constexpr int kLinks = 1000;
constexpr int kProbes = 14;
/// 1,000 links x 10 trainings/s (the 100 ms training period).
constexpr double kNominalRate = 10000.0;
/// p99 limit of the capacity search: a tenth of the training period.
constexpr double kLatencyLimitMs = 10.0;
/// A capacity step whose generator sent its p99 report later than this
/// did not offer the intended schedule (the host stalled the generator);
/// it is repeated, at most twice in a row, instead of judged.
constexpr double kVoidLateUs = 200.0;

// Substream coordinates beside (link, round) under streams::kServeReport.
constexpr std::uint64_t kTruthCoord = 1ull << 41;
constexpr std::uint64_t kArrivalCoord = 1ull << 42;
constexpr std::uint64_t kRecalibrationSalt = 0x5EC0;

struct Inputs {
  talon::PatternTable base_table;
  talon::PatternTable recal_table;
  std::shared_ptr<const talon::PatternAssets> base;
  std::shared_ptr<const talon::PatternAssets> recal;
  /// Report k belongs to link k % kLinks, round k / kLinks.
  std::vector<std::vector<SectorReading>> reports;
  /// Unit-mean exponential gaps of the Poisson arrival process.
  std::vector<double> unit_gaps;
};

Inputs make_inputs(std::uint64_t seed, std::size_t reports) {
  Inputs in;
  in.base_table = measured_pattern_table(seed);
  in.recal_table = measured_pattern_table(seed ^ kRecalibrationSalt);
  in.base = fresh_assets(in.base_table);
  in.recal = fresh_assets(in.recal_table);

  const std::vector<int>& tx = talon::talon_tx_sector_ids();
  const talon::RandomSubsetPolicy policy;
  std::vector<talon::Direction> truth(kLinks);
  for (int l = 0; l < kLinks; ++l) {
    talon::Rng rng(talon::substream_seed(seed, talon::streams::kServeReport,
                                         static_cast<std::uint64_t>(l), kTruthCoord));
    const double azimuth = rng.uniform(-60.0, 60.0);
    truth[static_cast<std::size_t>(l)] = {azimuth, rng.uniform(0.0, 25.0)};
  }
  in.reports.resize(reports);
  for (std::size_t k = 0; k < reports; ++k) {
    const std::uint64_t link = k % kLinks;
    talon::Rng rng(talon::substream_seed(seed, talon::streams::kServeReport, link,
                                         k / kLinks));
    // A fresh random subset per training, as a LinkSession draws it.
    const std::vector<int> subset = policy.choose(tx, kProbes, rng);
    const talon::Direction base_dir = truth[link];
    const talon::Direction dir{base_dir.azimuth_deg + rng.normal(1.0),
                               std::max(0.0, base_dir.elevation_deg + rng.normal(0.5))};
    auto& out = in.reports[k];
    out.reserve(subset.size());
    for (int id : subset) {
      const double snr = in.base_table.sample_db(id, dir) + rng.normal(0.5);
      out.push_back(SectorReading{.sector_id = id,
                                  .snr_db = snr,
                                  .rssi_dbm = snr - 70.0 + rng.normal(0.8)});
    }
  }
  talon::Rng gaps(
      talon::substream_seed(seed, talon::streams::kServeReport, kArrivalCoord));
  in.unit_gaps.resize(1u << 16);
  for (double& g : in.unit_gaps) g = -std::log(1.0 - gaps.uniform(0.0, 1.0));
  return in;
}

/// A daemon with every link registered. `warm`: start the consumer and
/// serve the first round (reports 0..kLinks-1) untimed, so every session
/// has run once before timing starts.
std::unique_ptr<talon::ServeDaemon> make_daemon(
    std::shared_ptr<const talon::PatternAssets> assets, const Inputs& in,
    std::uint64_t seed, int threads, bool warm) {
  talon::ServeConfig config;
  config.queue_capacity = 1u << 17;
  config.threads = threads;
  // Latency is timed by the generator from due times, not by the daemon.
  config.measure_latency = false;
  auto serve = std::make_unique<talon::ServeDaemon>(std::move(assets),
                                                    talon::CssDaemonConfig{}, config);
  for (int l = 0; l < kLinks; ++l) {
    serve->add_link(l, talon::Rng(talon::substream_seed(
                           seed, talon::streams::kNetworkSession,
                           static_cast<std::uint64_t>(l))));
  }
  if (warm) {
    serve->start();
    for (int l = 0; l < kLinks; ++l) {
      serve->submit(l, in.reports[static_cast<std::size_t>(l)]);
    }
    while (serve->processed() < static_cast<std::uint64_t>(kLinks)) {
      std::this_thread::yield();
    }
  }
  return serve;
}

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_us;
  /// submitted - processed when the last report was sent.
  std::uint64_t backlog_at_end{0};
  /// The offered rate as realized by the step's Poisson draws: reports
  /// per second from the first to the last due time.
  double offered_rate{0.0};
  bool completed{false};
};

/// Offer `count` reports (starting at report `first`, cycling through the
/// pre-synthesized stream) at Poisson `rate`; optionally publish `swap_to`
/// just before report `swap_at`. Traced: one span per report from due
/// time to completion, with the submit() call as its child.
Phase drive(talon::ServeDaemon& serve, const Inputs& in, std::size_t first,
            std::size_t count, double rate,
            const std::shared_ptr<const talon::PatternAssets>& swap_to = nullptr,
            std::size_t swap_at = 0) {
  Phase phase;
  std::vector<std::int64_t> due(count);
  std::vector<std::int64_t> sent_end(count);
  std::vector<std::int64_t> done(count);
  const std::int64_t t0 = now_ns() + 1'000'000;
  double offset_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    offset_s += in.unit_gaps[(first + i) % in.unit_gaps.size()] / rate;
    due[i] = t0 + static_cast<std::int64_t>(offset_s * 1e9);
  }
  phase.late_us.resize(count);
  const std::uint64_t processed_base = serve.processed();
  // An overloaded daemon drains its backlog after the last send; give it
  // twice the offered span to do so.
  const std::int64_t give_up = due.back() + 20'000'000'000 + 2 * (due.back() - t0);
  Tracer& trace = tracer();
  std::vector<std::int32_t> submit_span(trace.enabled() ? count : 0);
  std::size_t next = 0;
  std::size_t seen = 0;
  while (seen < count) {
    std::int64_t now = now_ns();
    if (next < count && now >= due[next]) {
      if (swap_to != nullptr && next == swap_at) {
        Scope span("driver.serve.swap", next);
        serve.swap_assets(swap_to);
      }
      const std::size_t k = (first + next) % in.reports.size();
      std::vector<SectorReading> readings = in.reports[k];
      const std::int64_t start = now_ns();
      serve.submit(static_cast<int>(k % kLinks), std::move(readings));
      now = now_ns();
      phase.late_us[next] = static_cast<double>(start - due[next]) / 1e3;
      sent_end[next] = now;
      if (trace.enabled()) {
        submit_span[next] = trace.record("driver.serve.submit", start, now, first + next);
      }
      if (++next == count) phase.backlog_at_end = serve.submitted() - serve.processed();
    }
    const std::uint64_t processed = serve.processed() - processed_base;
    if (processed > seen) {
      now = now_ns();
      while (seen < processed && seen < count) done[seen++] = now;
    }
    if (now > give_up) return phase;
  }
  phase.completed = true;
  const std::int64_t span_ns = std::max<std::int64_t>(1, due.back() - due.front());
  phase.offered_rate =
      static_cast<double>(count - 1) * 1e9 / static_cast<double>(span_ns);
  phase.latency_ms.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t end = std::max(done[i], sent_end[i]);
    phase.latency_ms[i] = static_cast<double>(end - due[i]) / 1e6;
  }
  if (trace.enabled()) {
    // One request span per report (due -> completion), parent of its
    // submit() span.
    for (std::size_t i = 0; i < count; ++i) {
      trace.adopt(submit_span[i],
                  trace.record("driver.serve.request", due[i],
                               std::max(done[i], sent_end[i]), first + i));
    }
  }
  return phase;
}

bool passes_limit(const Phase& phase, double rate) {
  return phase.completed && quantile(phase.latency_ms, 0.99) <= kLatencyLimitMs &&
         static_cast<double>(phase.backlog_at_end) <= rate * kLatencyLimitMs / 1e3;
}

std::uint64_t scrape_counter(talon::ServeDaemon& serve, const std::string& name) {
  std::istringstream text(serve.scrape());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  return 0;
}

}  // namespace

WorkloadResult run_serve_fleet(const RunOptions& options) {
  WorkloadResult result;
  // Consumer plus fan-out workers; with the generator the workload uses one
  // hardware thread less than the host has, which keeps the tail latency
  // from tracking whatever else the host runs.
  const int threads = std::max(1, options.nproc - 2);
  // Round 0 warms every session; the timed nominal phase offers the rest.
  const std::size_t nominal_count =
      static_cast<std::size_t>(std::ceil(0.4 * options.seconds * kNominalRate / kLinks)) *
      kLinks;
  const std::size_t total = kLinks + nominal_count;
  const std::size_t swap_at = nominal_count / 2;

  SetupTimes setup;
  Inputs in = timed_setups(5, setup, [&] { return make_inputs(options.seed, total); });
  result.set_e2e("setup_s", setup.reference_s(), "s");
  result.details["host.setup_wall_s"] = median(setup.wall_s);
  std::printf("serve-fleet: %d links, %zu reports at %.0f/s, %d selection threads + "
              "generator, setup %.3f s\n",
              kLinks, nominal_count, kNominalRate, threads, setup.reference_s());

  // --- nominal rate, hot swap at the midpoint --------------------------------
  const bool traced = tracer().enabled();
  tracer().set_active(false);
  auto serve = make_daemon(in.base, in, options.seed, threads, true);
  // Memory is sampled here, with every session warm (each holding its last
  // panel) and the panel cache full, and not after the timed phases: the
  // overloaded nominal phase leaves glibc's heap at a high-water mark that
  // depends on timing. Over five seeds it read 894-1114 MiB while the live
  // set, measured with every panel mmap-allocated, stayed at 552-555 MiB.
  // The end-of-run mark is kept in the record (serve.peak_rss_mib.end).
  result.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  const Phase nominal =
      drive(*serve, in, kLinks, nominal_count, kNominalRate, in.recal, swap_at);
  serve->stop();
  result.check(nominal.completed, "nominal phase completed");
  result.check(serve->submitted() == total && serve->processed() == total,
               "processed == submitted == offered");
  result.check(serve->rejected() == 0, "no rejected report");
  result.check(serve->assets_epoch() == 1 && serve->current_assets() == in.recal,
               "recalibrated assets published");
  result.check(serve->rebinds() == static_cast<std::uint64_t>(kLinks),
               "every link rebound once per swap");
  result.attempted += total;
  result.failed += total - std::min<std::uint64_t>(total, serve->processed());
  result.counters["serve.reports"] = total;
  result.counters["driver.serve.rebinds"] = serve->rebinds();
  const double p50 = quantile(nominal.latency_ms, 0.5);
  const double p99 = quantile(nominal.latency_ms, 0.99);
  // The nominal-rate latencies carry no bound (see README.md); they are
  // recorded, and reported as layer figures by the traced run.
  result.details["serve.latency_p50_ms"] = p50;
  result.details["serve.latency_p99_ms"] = p99;
  result.details["serve.latency_samples"] =
      static_cast<double>(nominal.latency_ms.size());
  result.details["serve.late_p50_us@10000"] = quantile(nominal.late_us, 0.5);
  result.details["serve.late_p99_us@10000"] = quantile(nominal.late_us, 0.99);
  const std::uint64_t cycles = scrape_counter(*serve, "serve_drain_cycles_total");
  const double per_cycle =
      cycles == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(cycles);
  std::printf("nominal %.0f reports/s: p50 %.3f ms, p99 %.3f ms over %zu reports; "
              "generator late p50 %.1f us p99 %.1f us; %.2f reports/drain cycle\n",
              kNominalRate, p50, p99, nominal.latency_ms.size(),
              quantile(nominal.late_us, 0.5), quantile(nominal.late_us, 0.99), per_cycle);

  // Every served report probes a fresh random subset, so each generation's
  // panel cache fills to its limit and every session holds its last panel.
  // The served states are kept and the daemon and retired generation
  // released before the next phase, so no more than two generations'
  // panels are alive at once.
  std::vector<talon::LinkSessionState> served;
  for (int l = 0; l < kLinks; ++l) {
    served.push_back(serve->daemon().session(l).export_state());
  }
  const std::uint64_t rebinds = serve->rebinds();
  serve.reset();
  in.base.reset();

  if (!traced) {
    // --- capacity: highest offered rate meeting the p99 limit ---------------
    // Short open-loop steps on a second daemon: doubling from the nominal
    // rate when the nominal phase met the limit, otherwise from one step at
    // the nominal rate, doubling (or halving) until the verdict flips; then
    // geometric bisection. Every phase is judged by passes_limit(). A rate
    // is judged too high only when two consecutive steps at it miss the
    // limit, so the figure is a best-of-two: one host stall does not halve
    // it. A step the generator could not keep to schedule is repeated
    // instead of judged. The figure reported is the realized offered rate
    // of the highest passing step, as measured: unlike the batch workloads'
    // times it is not scaled by the host-speed probe (harness.hpp), which
    // does not track a latency-limited rate across three busy threads.
    auto probe = make_daemon(in.recal, in, options.seed, threads, true);
    // 60 % of the run, and room for eight steps however short the run.
    const double step_s = 0.4;
    const auto deadline = Clock::now() + std::chrono::duration<double>(
                                             std::max(0.6 * options.seconds, 8 * step_s));
    const bool nominal_ok = passes_limit(nominal, kNominalRate);
    double lo = nominal_ok ? kNominalRate : 0.0;
    double hi = 0.0;
    double capacity = nominal_ok ? nominal.offered_rate : 0.0;
    std::size_t cursor = kLinks;
    int steps = 0;
    bool retrying = false;
    int voided = 0;
    double rate = kNominalRate;
    while (Clock::now() + std::chrono::duration<double>(step_s) < deadline) {
      if (!retrying && (lo > 0.0 || hi > 0.0)) {
        rate = hi == 0.0 ? 2.0 * lo : (lo == 0.0 ? hi / 2.0 : std::sqrt(lo * hi));
      }
      const auto count = static_cast<std::size_t>(rate * step_s);
      const Phase step = drive(*probe, in, cursor, count, rate);
      cursor += count;
      ++steps;
      result.attempted += count;
      result.check(step.completed, "capacity step completed");
      const bool void_step = quantile(step.late_us, 0.99) > kVoidLateUs && voided < 2;
      voided = void_step ? voided + 1 : 0;
      const bool ok = !void_step && passes_limit(step, rate);
      std::string at = "@";
      at += std::to_string(static_cast<long>(rate));
      result.details["serve.late_p50_us" + at] = quantile(step.late_us, 0.5);
      result.details["serve.late_p99_us" + at] = quantile(step.late_us, 0.99);
      std::printf("  capacity step %2d: %8.0f reports/s  p99 %8.3f ms  backlog %6llu  "
                  "late p50 %.1f us p99 %.1f us -> %s\n",
                  steps, rate, step.completed ? quantile(step.latency_ms, 0.99) : -1.0,
                  static_cast<unsigned long long>(step.backlog_at_end),
                  quantile(step.late_us, 0.5), quantile(step.late_us, 0.99),
                  void_step ? "void, generator late"
                  : ok      ? "meets limit"
                            : (retrying ? "misses limit" : "misses, retrying"));
      if (void_step) continue;
      if (ok) {
        lo = rate;
        capacity = step.offered_rate;
        retrying = false;
      } else if (retrying) {
        hi = rate;
        retrying = false;
      } else {
        retrying = true;
      }
    }
    probe->stop();
    result.check(probe->processed() == probe->submitted() && probe->rejected() == 0,
                 "capacity daemon lost or rejected nothing");
    result.check(capacity > 0.0, "some offered rate met the latency limit");
    result.set_e2e("work_rate", capacity, "1/s");
    std::printf("capacity: %.0f reports/s with p99 <= %.0f ms (%d steps)\n", capacity,
                kLatencyLimitMs, steps);
  }
  result.details["serve.peak_rss_mib.end"] = peak_rss_mib();

  in.recal.reset();

  // --- synchronous replay: correctness gate and exact counters --------------
  // The same per-link streams through CssDaemon::process_report on fresh
  // (cold-cache) assets, rebinding every link at the swap point.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  {
    const auto sync_base = fresh_assets(in.base_table);
    const auto sync_recal = fresh_assets(in.recal_table);
    talon::CssDaemon sync(sync_base, talon::CssDaemonConfig{});
    for (int l = 0; l < kLinks; ++l) {
      sync.add_headless_link(l, talon::Rng(talon::substream_seed(
                                    options.seed, talon::streams::kNetworkSession,
                                    static_cast<std::uint64_t>(l))));
    }
    tracer().set_active(traced);
    for (std::size_t k = 0; k < total; ++k) {
      if (k == kLinks + swap_at) {
        for (int l = 0; l < kLinks; ++l) sync.session(l).rebind_assets(sync_recal);
      }
      Scope span("driver.session.process_report", k);
      sync.process_report(static_cast<int>(k % kLinks), in.reports[k]);
    }
    tracer().set_active(false);
    std::size_t mismatched = 0;
    for (int l = 0; l < kLinks; ++l) {
      if (!(served[static_cast<std::size_t>(l)] == sync.session(l).export_state())) {
        ++mismatched;
      }
    }
    result.check(mismatched == 0, "served session state equals the synchronous replay (" +
                                      std::to_string(mismatched) + " links differ)");
    const auto base_cache = sync_base->engine().response_matrix().cache_stats();
    const auto recal_cache = sync_recal->engine().response_matrix().cache_stats();
    hits = base_cache.hits + recal_cache.hits;
    misses = base_cache.misses + recal_cache.misses;
  }
  result.counters["core.panel_cache.hits"] = hits;
  result.counters["core.panel_cache.misses"] = misses;

  if (!traced) return result;

  // --- traced run: per-layer split -------------------------------------------
  // A second nominal phase on a fresh daemon and fresh generations with
  // spans on; the untraced phase above is the overhead baseline.
  in.base = fresh_assets(in.base_table);
  in.recal = fresh_assets(in.recal_table);
  tracer().set_active(true);
  auto traced_serve = make_daemon(in.base, in, options.seed, threads, true);
  const Phase traced_phase =
      drive(*traced_serve, in, kLinks, nominal_count, kNominalRate, in.recal, swap_at);
  traced_serve->stop();
  result.check(traced_phase.completed && traced_serve->processed() == total &&
                   traced_serve->rebinds() == static_cast<std::uint64_t>(kLinks),
               "traced nominal phase processed everything");
  result.attempted += total;

  const std::vector<double> service_us =
      tracer().durations_us("driver.session.process_report");
  std::vector<double> wait_ms(nominal_count);
  for (std::size_t k = 0; k < nominal_count; ++k) {
    wait_ms[k] = traced_phase.latency_ms[k] - service_us[kLinks + k] / 1e3;
  }
  const std::vector<double> submit_us = tracer().durations_us("driver.serve.submit");
  result.set_layer("driver.serve.submit_us.p50", quantile(submit_us, 0.5), "us");
  result.set_layer("driver.serve.submit_us.p99", quantile(submit_us, 0.99), "us");
  result.set_layer("driver.serve.queue_wait_ms.p50", quantile(wait_ms, 0.5), "ms");
  result.set_layer("driver.serve.queue_wait_ms.p99", quantile(wait_ms, 0.99), "ms");
  result.set_layer("driver.serve.reports_per_cycle", per_cycle, "count");
  result.set_layer("driver.serve.swap_us", tracer().total_us("driver.serve.swap"), "us");
  result.set_layer("driver.serve.rebinds", static_cast<double>(rebinds), "count");
  result.set_layer("driver.serve.latency_p50_ms", p50, "ms");
  result.set_layer("driver.serve.latency_p99_ms", p99, "ms");
  result.set_layer("driver.session.process_report_us", median(service_us), "us");
  result.set_panel_cache(hits, misses);
  const std::vector<double>& late_us = traced_phase.late_us;
  result.set_layer("bench.generator.late_us.p50", quantile(late_us, 0.5), "us");
  result.set_layer("bench.generator.late_us.p99", quantile(late_us, 0.99), "us");
  const double traced_p50 = quantile(traced_phase.latency_ms, 0.5);
  result.set_layer("bench.trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0, "%");

  // Kernel alone: warm-workspace argmax over the first kKernelReports
  // reports on fresh assets, whose cache holds their panels after a first
  // pass; the timed passes must find the same peaks. The traced daemon and
  // the base generation go first, to keep two full caches at most.
  traced_serve.reset();
  in.base.reset();
  {
    constexpr std::size_t kKernelReports = 256;
    constexpr std::size_t kKernelCalls = 16 * kKernelReports;
    const auto kernel_assets = fresh_assets(in.recal_table);
    const talon::CorrelationEngine& engine = kernel_assets->engine();
    talon::CorrelationWorkspace ws;
    std::vector<std::size_t> peaks;
    for (std::size_t k = 0; k < kKernelReports; ++k) {
      peaks.push_back(engine.combined_argmax(in.reports[k], ws).index);
    }
    std::size_t repeated = 0;
    for (std::size_t k = 0; k < kKernelCalls; ++k) {
      std::size_t peak = 0;
      {
        Scope span("core.correlation.argmax", k);
        peak = engine.combined_argmax(in.reports[k % kKernelReports], ws).index;
      }
      repeated += peak == peaks[k % kKernelReports] ? 1 : 0;
    }
    result.check(repeated == kKernelCalls, "warm-workspace argmax repeats its peaks");
    result.set_layer("core.correlation.argmax_us",
                     median(tracer().durations_us("core.correlation.argmax")), "us");
  }

  // Executor: dispatch at the observed cycle width, and the drain speedup
  // of one backlog (a round of every link) at 1 vs N threads.
  const auto width = static_cast<std::size_t>(std::max(1.0, std::round(per_cycle)));
  result.set_layer("common.parallel.dispatch_us",
                   parallel_dispatch_us(threads, width, 200), "us");
  double drain_s[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    const int pass_threads = pass == 0 ? 1 : threads;
    auto backlog = make_daemon(in.recal, in, options.seed, pass_threads, false);
    for (std::size_t k = 0; k < 4 * kLinks; ++k) {
      backlog->submit(static_cast<int>(k % kLinks), in.reports[k]);
    }
    const auto start = Clock::now();
    {
      Scope span("driver.serve.drain_all", static_cast<std::uint64_t>(pass));
      backlog->drain_all();
    }
    drain_s[pass] = seconds_since(start);
    result.check(backlog->processed() == 4 * kLinks, "backlog drained");
  }
  result.set_layer("common.parallel.speedup", drain_s[0] / drain_s[1], "x");
  return result;
}

}  // namespace perfbench
