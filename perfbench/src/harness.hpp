// Shared plumbing of the CSS-stack benchmark: run options, the in-memory
// span tracer, timing statistics, metric records and the inputs every
// CSS workload starts from (the measured pattern table).
//
// The tracer only ever wraps calls the benchmark makes into the stack's
// public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/core/pattern_assets.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the tracer's and the generator's time
/// base).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Host hardware threads (std::thread::hardware_concurrency, >= 1).
  int nproc{1};
  /// Where the span dump is written at exit (empty = not written).
  std::string trace_path;
};

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  /// Index of the enclosing span in the tracer, -1 for a root.
  std::int32_t parent;
  /// Spans of one request (one report, one link-round, ...) share this.
  std::uint64_t request;
};

/// Append-only span store. Single-threaded by contract: every span is
/// recorded by the benchmark's own driving thread. A disabled tracer
/// records nothing and costs one branch per scope.
class Tracer {
 public:
  /// True while spans are being recorded.
  bool enabled() const { return active_; }
  /// Allow recording (the --trace 1 run) and start recording.
  void enable(std::size_t reserve);
  /// Pause or resume recording; a no-op unless enable() was called. Lets
  /// a traced run measure an untraced baseline first.
  void set_active(bool on) { active_ = allowed_ && on; }

  /// Open a span; returns its index (or -1 when disabled).
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);
  /// Record an interval measured elsewhere (e.g. due-to-completion of a
  /// served report) as a finished span under the current parent; returns
  /// its index (or -1 when disabled).
  std::int32_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::uint64_t request);
  /// Make `child` a child of `parent` (both recorded indices).
  void adopt(std::int32_t child, std::int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations [us] of every span called `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Summed duration [us] of every span called `name`.
  double total_us(const char* name) const;
  /// Self time [us] of every span called `name`: its duration minus the
  /// part its direct children cover.
  double self_total_us(const char* name) const;
  std::size_t count(const char* name) const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool allowed_{false};
  bool active_{false};
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// The process-wide tracer of this benchmark run.
Tracer& tracer();

/// RAII span around one call into the stack.
class Scope {
 public:
  Scope(const char* name, std::uint64_t request = 0)
      : index_(tracer().open(name, request)) {}
  ~Scope() { tracer().close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

// --- statistics -------------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- results ----------------------------------------------------------------

struct Metric {
  double value{0.0};
  std::string unit;
};

struct WorkloadResult {
  /// Operations attempted and failed (refused, lost or thrown reports,
  /// failed correctness checks).
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Deterministic work counters: must repeat bit-for-bit for one seed.
  std::map<std::string, std::uint64_t> counters;
  /// Extra record fields (per-rate generator lateness, sample counts, ...).
  std::map<std::string, double> details;

  /// Count one correctness gate; a failed gate prints its reason.
  void check(bool ok, const std::string& what);
  void set_e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void set_layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// Per-layer panel-cache traffic: hits, misses and the hit ratio.
  void set_panel_cache(std::uint64_t hits, std::uint64_t misses);
};

/// Peak resident set size of this process so far [MiB]. Workloads sample
/// it when their timed phase ends, before correctness checks and traced
/// extras add memory of their own.
double peak_rss_mib();

// --- host speed -------------------------------------------------------------
//
// A shared host's cores speed up and slow down by a quarter over seconds to
// minutes, all together, whatever the benchmark does. Every set-up time and
// every unit timed for a batch workload's rate is therefore taken as a pair:
// the unit of work, and right before it a fixed probe that calls nothing in
// src/. Each unit's time is scaled to the reference host (where the probe
// takes kReferenceProbeMs) by its own probe, and the metric is the median
// over units. A change to the stack moves the unit and not the probe, so it
// shows in full; the host's drift moves both and largely cancels. (Serve's
// latency-limited capacity is not scaled: the probe does not track it.)

/// The host-speed probe's time on the reference host [ms].
inline constexpr double kReferenceProbeMs = 4.0;

/// Run the host-speed probe `rounds` times (a fixed floating-point loop over
/// 256 KiB) and return the mean time of one round [ms].
double probe_ms(int rounds = 1);

/// Median over i of `unit[i] * kReferenceProbeMs / probe_ms[i]`: the units'
/// time on the reference host, in `unit`'s own units.
double reference_median(const std::vector<double>& unit,
                        const std::vector<double>& probe_ms);

/// Set-up times of one run: each repeat's wall time and the probe timed
/// right before it.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> probe_ms;
  /// The workload's setup_s: the median set-up time on the reference host.
  double reference_s() const { return reference_median(wall_s, probe_ms); }
};

/// Run `setup` `repeats` times, each after a probe, timing each, and keep
/// the last result. Repeating it makes work moved into set-up visible
/// against a steady figure.
template <typename Setup>
auto timed_setups(int repeats, SetupTimes& times, Setup setup) {
  times.probe_ms.push_back(probe_ms(3));
  auto start = Clock::now();
  auto value = setup();
  times.wall_s.push_back(seconds_since(start));
  for (int i = 1; i < repeats; ++i) {
    times.probe_ms.push_back(probe_ms(3));
    start = Clock::now();
    value = setup();
    times.wall_s.push_back(seconds_since(start));
  }
  return value;
}

// --- shared inputs ----------------------------------------------------------

/// Device seed of the DUT whose sector patterns every CSS workload uses.
inline constexpr std::uint64_t kDutSeed = 42;

/// The Sec. 4.5 anechoic campaign at the paper's resolution (az +-90 in
/// 1.8 deg steps, el 0..32.4 in 3.6 deg steps, 3 repetitions) for the
/// DUT; `campaign_seed` drives the measurement noise. Traced as
/// measure.campaign.
talon::PatternTable measured_pattern_table(std::uint64_t campaign_seed);

/// Fresh (unregistered) assets over `table` on the CSS default search
/// grid, so each workload starts from a cold panel cache.
std::shared_ptr<const talon::PatternAssets> fresh_assets(
    const talon::PatternTable& table);

/// Trivial-body parallel_for dispatch cost [us per call] at `threads`
/// workers over `width` indices (median of `calls` traced calls).
double parallel_dispatch_us(int threads, std::size_t width, int calls);

// --- workloads --------------------------------------------------------------

WorkloadResult run_serve_fleet(const RunOptions& options);
WorkloadResult run_dense_room(const RunOptions& options);
WorkloadResult run_mesh_city(const RunOptions& options);
WorkloadResult run_replay_fig7(const RunOptions& options);

}  // namespace perfbench
