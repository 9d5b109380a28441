// The asynchronous serving layer over CssDaemon.
//
// CssDaemon is a synchronous library: whoever holds it calls
// process_report() or a session's process_sweep() inline. ServeDaemon
// turns it into a long-running service shaped like a production
// beam-management daemon
// (Terragraph's per-node firmware agent): station threads SUBMIT sweep
// reports into a lock-free MPSC queue and return immediately; one
// consumer drains the queue, groups the reports per link, and fans the
// per-link selection work over the process worker pool
// (common/parallel.hpp). Four guarantees anchor the design:
//
//  * ZERO silent drops -- the bounded queue rejects a push only back to
//    the submitting caller (backpressure), and every accepted report is
//    processed exactly once, including across stop() and hot swaps;
//  * PER-PRODUCER FIFO per link -- the queue pops in claim order, and a
//    producer's pushes claim in program order, so each producer's
//    reports for a link are processed in the order it submitted them.
//    Feeding the same per-link sequences from one thread is therefore
//    bit-identical to the synchronous API at ANY worker-thread count.
//    Reports two producers race onto one link have no defined order;
//    none is lost or served twice;
//  * PER-LINK fault containment -- a report whose processing throws
//    quarantines its link: the error is counted, that report and every
//    later one for the link are dropped and counted, and every other link
//    keeps being served;
//  * HOT reload between cycles -- swap_assets() replaces the current
//    PatternAssets generation under a mutex. Each drain cycle copies that
//    pointer once, after popping its reports, and a link whose session
//    rides another generation rebinds before its reports are served. A
//    report accepted after swap_assets() returns is therefore served on
//    the new generation; sessions own their generation through their own
//    shared_ptr, so a retired table lives until its last session rebinds.
//
// Telemetry: every counter the daemon's layers accumulate -- ingest and
// processing totals, PR5 fault/degradation counters, PR7 lifecycle
// time-in-state, PR4/PR8 panel-cache hit rates, and the selection
// latency histogram -- is exported through a TelemetryRegistry in the
// text exposition format (scrape()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/mpsc_queue.hpp"
#include "src/driver/css_daemon.hpp"
#include "src/driver/telemetry.hpp"

namespace talon {

/// One ingested sweep report: a training round's readings for one link.
struct SweepReport {
  int link_id{0};
  std::vector<SectorReading> readings;
  /// steady_clock nanoseconds at submission (0 = latency not measured).
  std::uint64_t submit_ns{0};
};

struct ServeConfig {
  /// Ingest queue slots (rounded up to a power of two).
  std::size_t queue_capacity{4096};
  /// Worker threads for the per-link selection fan-out; <= 0 uses
  /// default_thread_count() (the --threads / TALON_THREADS plumbing).
  int threads{0};
  /// Stamp reports with the submission time and record the selection
  /// latency histogram. Off = the telemetry output is fully
  /// deterministic (the determinism tests compare scrapes byte for
  /// byte).
  bool measure_latency{true};
};

class ServeDaemon {
 public:
  ServeDaemon(std::shared_ptr<const PatternAssets> assets,
              CssDaemonConfig session_defaults = {}, ServeConfig config = {});
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// The wrapped synchronous daemon (tests compare against driving it
  /// directly). Do not mutate sessions while the consumer runs.
  CssDaemon& daemon() { return daemon_; }
  const CssDaemon& daemon() const { return daemon_; }

  /// Register a headless link. Only while the consumer is stopped.
  LinkSession& add_link(int link_id, Rng rng);
  LinkSession& add_link(int link_id, Rng rng, const CssDaemonConfig& config);

  // --- ingest ---------------------------------------------------------------

  /// Submit one report; false when the queue is full (the report is NOT
  /// consumed -- retry or shed). Callable from any number of threads.
  bool try_submit(int link_id, std::vector<SectorReading> readings);

  /// Submit, yielding until the queue accepts (requires a running
  /// consumer to guarantee progress).
  void submit(int link_id, std::vector<SectorReading> readings);

  // --- consumer -------------------------------------------------------------

  /// Start the consumer thread. No-op when already running.
  void start();

  /// Stop the consumer: processes everything already accepted, then
  /// joins. Reports submitted after stop() begins may remain queued (a
  /// later start() or drain_all() picks them up).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Drain and process every queued report on the CALLING thread; the
  /// consumer must be stopped (single-consumer discipline). Returns the
  /// number of reports processed. This is the deterministic test
  /// harness's consumer.
  std::size_t drain_all();

  // --- hot reload -----------------------------------------------------------

  /// Publish a new assets generation; sessions rebind at the next drain
  /// cycle that serves one of their reports. Safe while the consumer runs.
  void swap_assets(std::shared_ptr<const PatternAssets> next);

  std::shared_ptr<const PatternAssets> current_assets() const;

  /// Swap count so far (the serve_assets_swaps_total counter).
  std::uint64_t assets_epoch() const { return swaps_.value(); }

  // --- observability --------------------------------------------------------

  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }
  /// try_submit() rejections (accepted reports are never dropped).
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Sessions rebound to a new assets generation.
  std::uint64_t rebinds() const {
    return rebinds_.load(std::memory_order_relaxed);
  }
  /// Links quarantined because processing one of their reports threw.
  std::uint64_t link_errors() const {
    return link_errors_.load(std::memory_order_relaxed);
  }
  /// Accepted reports of quarantined links, not processed: the report
  /// that threw and every later one. submitted() == processed() +
  /// dropped() once the queue is drained.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  TelemetryRegistry& telemetry() { return telemetry_; }

  /// Publish the current session aggregates into the registry and render
  /// the whole registry as `name{labels} value` text.
  std::string scrape();

 private:
  /// Consumer-side per-link state (only the consumer touches it).
  struct LinkIngest {
    int link_id{0};
    /// The link's reports popped in the current cycle, in pop order.
    std::vector<SweepReport> ready;
    /// Set when processing one of the link's reports threw.
    bool quarantined{false};
  };

  void enqueue(SweepReport report);
  void route(SweepReport report);
  std::size_t drain_cycle();
  void process_link(LinkIngest& ingest,
                    const std::shared_ptr<const PatternAssets>& assets);
  void run_consumer();
  void publish_session_metrics();

  CssDaemon daemon_;
  CssDaemonConfig session_defaults_;
  ServeConfig config_;
  /// The current assets generation; swap_assets() replaces it.
  mutable std::mutex assets_mutex_;
  std::shared_ptr<const PatternAssets> assets_;
  MpscQueue<SweepReport> queue_;
  TelemetryRegistry telemetry_;
  TelemetryCounter& swaps_;

  /// Consumer-side per-link state. The map is frozen while the consumer
  /// runs (add_link requires stopped), so producers may look links up in
  /// it.
  std::unordered_map<int, LinkIngest> ingest_;
  /// Links with ready reports in the current drain cycle.
  std::vector<LinkIngest*> cycle_links_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rebinds_{0};
  std::atomic<std::uint64_t> link_errors_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> drain_cycles_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread consumer_;
  /// Serializes the consumer's processing phase against scrape()'s walk
  /// over the sessions (one lock per cycle, not per report).
  std::mutex cycle_mutex_;
};

}  // namespace talon
