#include "src/driver/serve.hpp"

#include <chrono>
#include <exception>
#include <iostream>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"

namespace talon {
namespace {

/// Max reports popped per drain cycle before the cycle's links are
/// processed: bounds per-cycle memory and keeps latency bounded under a
/// full queue.
constexpr std::size_t kDrainBatch = 1024;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServeDaemon::ServeDaemon(std::shared_ptr<const PatternAssets> assets,
                         CssDaemonConfig session_defaults, ServeConfig config)
    : daemon_(assets, session_defaults),
      session_defaults_(session_defaults),
      config_(config),
      assets_(std::move(assets)),
      queue_(config.queue_capacity),
      swaps_(telemetry_.counter("serve_assets_swaps_total")) {}

ServeDaemon::~ServeDaemon() { stop(); }

LinkSession& ServeDaemon::add_link(int link_id, Rng rng) {
  return add_link(link_id, rng, session_defaults_);
}

LinkSession& ServeDaemon::add_link(int link_id, Rng rng,
                                   const CssDaemonConfig& config) {
  if (running()) {
    throw StateError("add_link requires a stopped consumer");
  }
  // Register against the CURRENT assets generation so links added after
  // a hot swap never start on a retired table.
  LinkSession& session =
      daemon_.add_headless_link(link_id, rng, config, current_assets());
  ingest_[link_id].link_id = link_id;
  return session;
}

void ServeDaemon::enqueue(SweepReport report) {
  if (!ingest_.contains(report.link_id)) {
    throw StateError("no serving session for link id " +
                     std::to_string(report.link_id));
  }
  if (config_.measure_latency) report.submit_ns = steady_now_ns();
  while (!queue_.try_push(report)) {
    std::this_thread::yield();
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

bool ServeDaemon::try_submit(int link_id, std::vector<SectorReading> readings) {
  // enqueue() pushes until the queue takes the report, so rejection must
  // happen here. approx_size is a snapshot -- a racing burst can still
  // force enqueue to spin briefly -- but a full queue is reliably
  // rejected.
  if (queue_.approx_size() >= queue_.capacity()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SweepReport report;
  report.link_id = link_id;
  report.readings = std::move(readings);
  enqueue(std::move(report));
  return true;
}

void ServeDaemon::submit(int link_id, std::vector<SectorReading> readings) {
  SweepReport report;
  report.link_id = link_id;
  report.readings = std::move(readings);
  enqueue(std::move(report));
}

void ServeDaemon::route(SweepReport report) {
  auto it = ingest_.find(report.link_id);
  TALON_EXPECTS(it != ingest_.end());
  LinkIngest& ingest = it->second;
  // process_link() empties `ready`, so an empty one marks the link's
  // first report of this cycle.
  if (ingest.ready.empty()) cycle_links_.push_back(&ingest);
  ingest.ready.push_back(std::move(report));
}

void ServeDaemon::process_link(
    LinkIngest& ingest, const std::shared_ptr<const PatternAssets>& assets) {
  if (ingest.quarantined) {
    dropped_.fetch_add(ingest.ready.size(), std::memory_order_relaxed);
    ingest.ready.clear();
    return;
  }
  LinkSession& session = daemon_.session(ingest.link_id);
  if (assets != session.assets()) {
    session.rebind_assets(assets);
    rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  LatencyHistogram* latency =
      config_.measure_latency
          ? &telemetry_.histogram("serve_selection_latency_us")
          : nullptr;
  for (std::size_t i = 0; i < ingest.ready.size(); ++i) {
    SweepReport& report = ingest.ready[i];
    try {
      session.process_report(std::move(report.readings));
    } catch (const std::exception& e) {
      // Contain the failure to this link: its session may be half way
      // through a round, so it serves nothing more.
      ingest.quarantined = true;
      link_errors_.fetch_add(1, std::memory_order_relaxed);
      dropped_.fetch_add(ingest.ready.size() - i, std::memory_order_relaxed);
      std::cerr << "talon: serve: link " << ingest.link_id
                << " quarantined after a report failed: " << e.what() << "\n";
      break;
    }
    processed_.fetch_add(1, std::memory_order_relaxed);
    if (latency != nullptr && report.submit_ns != 0) {
      const std::uint64_t now = steady_now_ns();
      const std::uint64_t delta_ns =
          now > report.submit_ns ? now - report.submit_ns : 0;
      latency->observe_us(delta_ns / 1000);
    }
  }
  ingest.ready.clear();
}

std::size_t ServeDaemon::drain_cycle() {
  cycle_links_.clear();
  SweepReport report;
  std::size_t popped = 0;
  while (popped < kDrainBatch && queue_.try_pop(report)) {
    ++popped;
    route(std::move(report));
  }
  if (!cycle_links_.empty()) {
    // One snapshot per cycle, taken after the pops: every report popped
    // here was pushed before this lock, so a report accepted after
    // swap_assets() returned is served on the new generation.
    const std::shared_ptr<const PatternAssets> assets = current_assets();
    std::lock_guard<std::mutex> lock(cycle_mutex_);
    drain_cycles_.fetch_add(1, std::memory_order_relaxed);
    // Fan the cycle's links over the worker pool. Each link is owned by
    // exactly one index, its reports already in pop order, so the
    // outcome is independent of the thread count.
    parallel_for(
        cycle_links_.size(),
        [this, &assets](std::size_t i) { process_link(*cycle_links_[i], assets); },
        ParallelOptions{.threads = config_.threads});
  }
  return popped;
}

void ServeDaemon::run_consumer() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (drain_cycle() == 0) {
      // Idle: brief sleep instead of a busy spin. Latency floor ~50us,
      // well under one bucket of the latency histogram's working range.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Stop processes everything already accepted: drain until dry.
  while (drain_cycle() != 0) {
  }
}

void ServeDaemon::start() {
  if (running()) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  consumer_ = std::thread([this] { run_consumer(); });
}

void ServeDaemon::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  consumer_.join();
  running_.store(false, std::memory_order_release);
}

std::size_t ServeDaemon::drain_all() {
  if (running()) {
    throw StateError("drain_all requires a stopped consumer");
  }
  const std::uint64_t before = processed();
  while (drain_cycle() != 0) {
  }
  return static_cast<std::size_t>(processed() - before);
}

void ServeDaemon::swap_assets(std::shared_ptr<const PatternAssets> next) {
  TALON_EXPECTS(next != nullptr);
  std::lock_guard<std::mutex> lock(assets_mutex_);
  assets_ = std::move(next);
  swaps_.inc();
}

std::shared_ptr<const PatternAssets> ServeDaemon::current_assets() const {
  std::lock_guard<std::mutex> lock(assets_mutex_);
  return assets_;
}

void ServeDaemon::publish_session_metrics() {
  // Ingest-path counters (mirrors of the daemon's atomics, so one scrape
  // carries everything).
  telemetry_.counter("serve_reports_submitted_total").set(submitted());
  telemetry_.counter("serve_reports_processed_total").set(processed());
  telemetry_.counter("serve_reports_rejected_total").set(rejected());
  telemetry_.counter("serve_assets_rebinds_total").set(rebinds());
  telemetry_.counter("serve_link_errors_total").set(link_errors());
  telemetry_.counter("serve_reports_dropped_total").set(dropped());
  telemetry_.counter("serve_drain_cycles_total")
      .set(drain_cycles_.load(std::memory_order_relaxed));
  telemetry_.gauge("serve_queue_depth").set(static_cast<double>(queue_.approx_size()));
  telemetry_.gauge("serve_links").set(static_cast<double>(daemon_.session_count()));

  // Aggregate session state: selection rounds, the PR5 fault and
  // degradation counters, the PR7 lifecycle time-in-state aggregates.
  std::uint64_t rounds = 0;
  for (int id : daemon_.link_ids()) rounds += daemon_.session(id).rounds();
  telemetry_.counter("serve_rounds_total").set(rounds);

  const FaultStats faults = daemon_.total_fault_stats();
  telemetry_.counter("serve_fault_probes_lost_total").set(faults.probes_lost);
  telemetry_.counter("serve_fault_feedback_drops_total").set(faults.feedback_drops);
  telemetry_.counter("serve_fault_feedback_failures_total")
      .set(faults.feedback_failures);

  const DegradationStats degradation = daemon_.total_degradation_stats();
  telemetry_.counter("serve_degradation_css_rounds_total").set(degradation.css_rounds);
  telemetry_.counter("serve_degradation_failed_rounds_total")
      .set(degradation.failed_rounds);
  telemetry_.counter("serve_degradation_fallback_entries_total")
      .set(degradation.fallback_entries);
  telemetry_.counter("serve_degradation_full_sweep_rounds_total")
      .set(degradation.full_sweep_rounds);

  const LifecycleStats lifecycle = daemon_.total_lifecycle_stats();
  telemetry_.gauge("serve_lifecycle_time_in_state",
                   "state=\"up\"").set(lifecycle.up_time);
  telemetry_.gauge("serve_lifecycle_time_in_state",
                   "state=\"unstable\"").set(lifecycle.unstable_time);
  telemetry_.gauge("serve_lifecycle_time_in_state",
                   "state=\"acquisition\"").set(lifecycle.acquisition_time);
  telemetry_.gauge("serve_lifecycle_time_in_state",
                   "state=\"down\"").set(lifecycle.down_time);
  telemetry_.counter("serve_lifecycle_trips_total").set(lifecycle.trips);
  telemetry_.counter("serve_lifecycle_recoveries_total").set(lifecycle.recoveries);

  // PR4/PR8 panel-cache traffic of the current assets generation.
  const auto cache = current_assets()->engine().response_matrix().cache_stats();
  telemetry_.counter("serve_panel_cache_hits_total").set(cache.hits);
  telemetry_.counter("serve_panel_cache_misses_total").set(cache.misses);
  const std::uint64_t lookups = cache.hits + cache.misses;
  telemetry_.gauge("serve_panel_cache_hit_rate")
      .set(lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(lookups));
}

std::string ServeDaemon::scrape() {
  // One lock serializes the session walk against the consumer's
  // processing phase; the counters themselves are atomics.
  std::lock_guard<std::mutex> lock(cycle_mutex_);
  publish_session_metrics();
  return telemetry_.render();
}

}  // namespace talon
