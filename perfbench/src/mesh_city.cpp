// mesh-city: MeshSimulator, 256 APs x 4 STAs on 8 channels with churn --
// sim/event_engine and common/parallel at fine grain and no CSS at all,
// so an executor or engine change shows here and a kernel change must
// not.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/harness.hpp"
#include "src/sim/event_engine.hpp"
#include "src/sim/mesh.hpp"

namespace perfbench {
namespace {

talon::MeshConfig city_config(std::uint64_t seed, int threads) {
  talon::MeshConfig config;
  config.aps = 256;
  config.stas_per_ap = 4;
  config.channels = 8;
  config.trainings_per_second = 10.0;
  config.simulated_seconds = 5.0;
  config.ignition_batch = 64;
  config.churn_probability = 0.002;
  config.seed = seed;
  config.threads = threads;
  return config;
}

struct Inputs {
  talon::MeshRunResult serial;
  double serial_s{0.0};
};

/// No-op events at the mesh's batch shape: `batches` timestamps of
/// `width` commuting events on distinct entities. Returns ns per event.
double engine_ns_per_event(int threads, std::size_t width, std::size_t batches) {
  talon::EventEngine engine(talon::EventEngineConfig{.threads = threads});
  std::vector<talon::EntityId> entities;
  for (std::size_t e = 0; e < width; ++e) {
    entities.push_back(engine.add_entity("noop-" + std::to_string(e)));
  }
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t e = 0; e < width; ++e) {
      engine.schedule(talon::EventSpec{.time_s = static_cast<double>(b),
                                       .entity = entities[e],
                                       .priority = 0,
                                       .commuting = true},
                      [](talon::EventContext&) {});
    }
  }
  const auto start = Clock::now();
  {
    Scope span("sim.event_engine.run_noop");
    engine.run();
  }
  return seconds_since(start) * 1e9 / static_cast<double>(width * batches);
}

}  // namespace

WorkloadResult run_mesh_city(const RunOptions& options) {
  WorkloadResult result;
  // Timed at half the host's threads, as dense-room is: with every vCPU
  // busy a run waits for whichever thread the host stalls. A run at all N
  // threads is still checked below.
  const int threads = std::max(1, options.nproc / 2);
  const bool traced = tracer().enabled();
  tracer().set_active(false);

  // Set-up: the topology build plus one serial warm-up run, which is also
  // the reference every timed run must reproduce bit for bit.
  SetupTimes setup;
  const Inputs in = timed_setups(5, setup, [&] {
    Inputs inputs;
    talon::MeshSimulator sim(city_config(options.seed, 1));
    const auto start = Clock::now();
    inputs.serial = sim.run();
    inputs.serial_s = seconds_since(start);
    return inputs;
  });
  result.set_e2e("setup_s", setup.reference_s(), "s");
  result.details["host.setup_wall_s"] = median(setup.wall_s);
  result.counters["sim.mesh.events"] = in.serial.events_executed;
  result.counters["sim.mesh.parallel_batches"] = in.serial.parallel_batches;
  result.counters["sim.mesh.trainings"] = in.serial.total_trainings;
  result.counters["sim.mesh.ignited"] = in.serial.ignited;

  // --- timed loop: whole 5 s horizons at N/2 threads; a traced run spends the
  // second half of its budget with a span per run.
  std::vector<double> run_ms[2];
  std::vector<double> probes[2];
  for (int half = 0; half < (traced ? 2 : 1); ++half) {
    tracer().set_active(half == 1);
    const double budget_s = traced ? 0.5 * options.seconds : options.seconds;
    const auto loop_start = Clock::now();
    while (run_ms[half].empty() || seconds_since(loop_start) < budget_s) {
      talon::MeshSimulator sim(city_config(options.seed, threads));
      probes[half].push_back(probe_ms());
      const auto start = Clock::now();
      talon::MeshRunResult run;
      {
        Scope span("sim.mesh.run", run_ms[half].size());
        run = sim.run();
      }
      const double secs = seconds_since(start);
      result.check(run == in.serial, "MeshRunResult identical at 1 and N/2 threads");
      run_ms[half].push_back(secs * 1e3);
      result.attempted += run.events_executed;
    }
  }
  tracer().set_active(false);
  result.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  talon::MeshSimulator wide(city_config(options.seed, options.nproc));
  result.check(wide.run() == in.serial, "MeshRunResult identical at N threads");
  const std::vector<double>& untraced = run_ms[0];
  // The rate of the median run on the reference host (harness.hpp).
  const double run_ref_ms = reference_median(untraced, probes[0]);
  const double x_realtime = in.serial.simulated_s * 1e3 / run_ref_ms;
  result.set_e2e("work_rate", x_realtime, "1/s");
  result.details["mesh.runs"] = static_cast<double>(untraced.size());
  result.details["mesh.run_wall_ms.p50"] = median(untraced);
  result.details["host.probe_ms.p50"] = median(probes[0]);
  const std::uint64_t events = in.serial.events_executed;
  const std::uint64_t batches = in.serial.parallel_batches;
  std::printf("mesh-city: 1024 links at %d threads: %zu runs, %.2f x real time, run "
              "p50 %.2f ms (%.2f ms on the reference host; serial %.2f ms); %llu "
              "events, %llu parallel batches; setup %.3f s\n",
              threads, untraced.size(), x_realtime, median(untraced), run_ref_ms,
              in.serial_s * 1e3, static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(batches), setup.reference_s());
  if (!traced) return result;

  tracer().set_active(true);
  const double run_p50_ms = quantile(untraced, 0.5);
  result.set_layer("sim.mesh.events", static_cast<double>(events), "count");
  result.set_layer("sim.mesh.parallel_batches", static_cast<double>(batches), "count");
  // Mean events per parallel batch: the fan-out width the engine sees.
  const double per_batch = static_cast<double>(events) /
                           static_cast<double>(std::max<std::uint64_t>(1, batches));
  const auto width = static_cast<std::size_t>(std::max(2.0, std::round(per_batch)));
  result.set_layer("sim.event_engine.ns_per_event",
                   engine_ns_per_event(threads, width, batches), "ns");
  result.set_layer("common.parallel.dispatch_us",
                   parallel_dispatch_us(threads, width, 200), "us");
  result.set_layer("common.parallel.speedup", in.serial_s * 1e3 / run_p50_ms, "x");
  result.set_layer("bench.trace.overhead_pct",
                   (reference_median(run_ms[1], probes[1]) / run_ref_ms - 1.0) * 100.0, "%");
  return result;
}

}  // namespace perfbench
