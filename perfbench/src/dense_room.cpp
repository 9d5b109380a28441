// dense-room: NetworkSimulator with K=64 AP-STA pairs in the conference
// room at 10 trainings/s -- the full link-round (channel synthesis, PHY
// measurement, firmware ring, session, batched selection, contention).
//
// The untraced loop times NetworkSimulator::run() at N/2 threads. The traced
// run splits one serial link-round by re-driving the same rounds from the
// stack's public functions -- a replica of NetworkSimulator::run and of
// LinkSimulator::mutual_training that must reproduce the simulator's
// selections exactly -- with a span around each call: per frame the
// channel's true SNR and the PHY measurement, per link the MAC exchange
// and the ring drain, per round the batched selection and contention.
// Whatever the named layers do not cover is sim.network.unattributed_ms.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "perfbench/src/harness.hpp"
#include "src/antenna/codebook.hpp"
#include "src/channel/environment.hpp"
#include "src/common/rng.hpp"
#include "src/core/correlation.hpp"
#include "src/mac/frames.hpp"
#include "src/mac/sweep.hpp"
#include "src/mac/schedule.hpp"
#include "src/mac/timing.hpp"
#include "src/phy/measurement.hpp"
#include "src/sim/contention.hpp"
#include "src/sim/network.hpp"

namespace perfbench {
namespace {

constexpr int kPairs = 64;
constexpr std::size_t kRounds = 10;

talon::NetworkConfig room_config(std::uint64_t seed, int threads) {
  talon::NetworkConfig config;
  config.links = kPairs;
  config.rounds = kRounds;
  config.trainings_per_second = 10.0;
  config.seed = seed;
  config.threads = threads;
  return config;
}

struct Inputs {
  std::unique_ptr<talon::Environment> room;
  talon::PatternTable table;
  std::shared_ptr<const talon::PatternAssets> assets;
  std::unique_ptr<talon::NetworkSimulator> first;
};

/// Every link's selected sector per round (-1 = none), plus the run's
/// aggregate record, for exact comparison.
struct Outcome {
  std::vector<int> selections;
  int trainings{0};
  int deferred{0};
  double mean_snr_db{0.0};
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const talon::NetworkRunResult& result) {
  Outcome out;
  for (const talon::NetworkRound& round : result.rounds) {
    for (const talon::LinkRoundOutcome& link : round.links) {
      out.selections.push_back(link.selected ? link.sector_id : -1);
    }
  }
  out.trainings = result.total_trainings;
  out.deferred = result.deferred_trainings;
  out.mean_snr_db = result.mean_selected_snr_db;
  return out;
}

struct Replica {
  std::vector<int> selections;
  std::size_t frames{0};
  /// Every parked sweep, for the kernel probe.
  std::vector<std::vector<talon::SectorReading>> sweeps;
};

/// NetworkSimulator::run() re-driven serially from public calls, one span
/// per layer call. Mirrors src/sim/network.cpp step for step.
Replica replay_rounds(const talon::NetworkConfig& config, const talon::Environment& room,
                      std::shared_ptr<const talon::PatternAssets> assets) {
  using namespace talon;
  struct Pair {
    std::unique_ptr<Node> initiator;
    std::unique_ptr<Node> responder;
    std::unique_ptr<Wil6210Driver> driver;
    double phase_s{0.0};
  };
  const double period_s = 1.0 / config.trainings_per_second;
  const int cols =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(config.links))));
  const double pitch_x = config.link_distance_m + config.pair_spacing_m;
  CssDaemon daemon(std::move(assets), config.session);
  std::vector<Pair> pairs(static_cast<std::size_t>(config.links));
  for (int l = 0; l < config.links; ++l) {
    const auto ul = static_cast<std::uint64_t>(l);
    const double ap_x = (l % cols) * pitch_x;
    const double ap_y = (l / cols) * config.pair_spacing_m;
    Pair& pair = pairs[ul];
    NodeConfig ap;
    ap.id = 2 * l + 1;
    ap.device_seed = substream_seed(config.seed, streams::kNetworkDevice, ul, 0);
    ap.pose = EndpointPose{.position = {ap_x, ap_y, 1.0},
                           .orientation = DeviceOrientation(0.0, 0.0)};
    pair.initiator = std::make_unique<Node>(ap);
    NodeConfig sta;
    sta.id = 2 * l + 2;
    sta.device_seed = substream_seed(config.seed, streams::kNetworkDevice, ul, 1);
    sta.pose = EndpointPose{.position = {ap_x + config.link_distance_m, ap_y, 1.0},
                            .orientation = DeviceOrientation(180.0, 0.0)};
    pair.responder = std::make_unique<Node>(sta);
    pair.driver = std::make_unique<Wil6210Driver>(pair.responder->firmware());
    Rng phase(substream_seed(config.seed, streams::kNetworkPhase, ul));
    pair.phase_s = phase.uniform(0.0, period_s);
    daemon.add_link(l, *pair.driver,
                    Rng(substream_seed(config.seed, streams::kNetworkSession, ul, 0)));
  }

  Replica replica;
  const TimingModel timing;
  ChannelArbiter arbiter;
  std::map<int, std::optional<CssResult>> selections;
  std::vector<std::size_t> probes(pairs.size());
  Scope rounds_span("sim.network.replica");
  for (std::size_t r = 0; r < config.rounds; ++r) {
    for (std::size_t l = 0; l < pairs.size(); ++l) {
      Scope link_round("sim.network.link_round", r * pairs.size() + l);
      LinkSession& session = daemon.session(static_cast<int>(l));
      const std::vector<int> subset = session.next_probe_subset();
      probes[l] = subset.size();
      const std::uint64_t request = r * pairs.size() + l;
      // LinkSimulator::mutual_training, spelled out: the same channel and
      // measurement streams, one span per true-SNR and measurement call.
      const Rng channel_rng(substream_seed(config.seed, streams::kNetworkChannel, l, r));
      const LinkSimulator link(room, config.radio, config.measurement, channel_rng);
      MeasurementModel phy(config.measurement, channel_rng);
      const auto deliver = [&](Node& tx, Node& rx) {
        return [&, request](const Frame& frame) {
          const bool sweep = frame.type == FrameType::kSectorSweep;
          const int sector = sweep ? frame.ssw->sector_id : tx.firmware().own_tx_sector();
          double snr = 0.0;
          {
            Scope span("channel.true_snr", request);
            snr = link.true_snr_db(tx, sector, rx, kRxQuasiOmniSectorId);
          }
          std::optional<SectorReading> reading;
          {
            Scope span("phy.measure", request);
            reading = phy.measure(sweep ? sector : 0, snr);
          }
          ++replica.frames;
          if (!reading) return false;
          if (sweep) rx.firmware().on_ssw_frame(*frame.ssw, *reading);
          if (frame.feedback) rx.firmware().apply_peer_feedback(*frame.feedback);
          return true;
        };
      };
      Node& initiator = *pairs[l].initiator;
      Node& responder = *pairs[l].responder;
      const std::vector<BurstSlot> schedule = probing_burst_schedule(subset);
      MutualTrainingSession exchange(
          schedule, schedule, link.timing(),
          MutualTrainingSession::Callbacks{
              .deliver_to_responder = deliver(initiator, responder),
              .deliver_to_initiator = deliver(responder, initiator),
              .responder_select =
                  [&initiator, &responder] {
                    const SswFeedbackField fb = responder.firmware().end_peer_sweep();
                    initiator.firmware().begin_peer_sweep();
                    return fb;
                  },
              .initiator_select =
                  [&initiator] { return initiator.firmware().end_peer_sweep(); },
          });
      {
        Scope span("sim.linksim.mutual_training", request);
        responder.firmware().begin_peer_sweep();
        exchange.run();
      }
      {
        Scope span("driver.session.prepare_sweep", request);
        session.prepare_sweep();
      }
      replica.sweeps.emplace_back(session.pending_readings().begin(),
                                  session.pending_readings().end());
    }
    selections.clear();
    {
      Scope span("driver.daemon.complete_prepared", r);
      daemon.complete_prepared(&selections);
    }
    for (std::size_t l = 0; l < pairs.size(); ++l) {
      const auto it = selections.find(static_cast<int>(l));
      if (it == selections.end() || !it->second.has_value()) {
        replica.selections.push_back(-1);
        continue;
      }
      replica.selections.push_back(it->second->sector_id);
      const Rng channel_rng(substream_seed(config.seed, streams::kNetworkChannel, l, r));
      const LinkSimulator link(room, config.radio, config.measurement, channel_rng);
      Scope span("channel.true_snr", r * pairs.size() + l);
      link.true_snr_db(*pairs[l].initiator, it->second->sector_id, *pairs[l].responder,
                       kRxQuasiOmniSectorId);
    }
    Scope span("sim.contention.arbitrate", r);
    for (std::size_t l = 0; l < pairs.size(); ++l) {
      const double airtime_ms =
          timing.mutual_training_time_ms(static_cast<int>(probes[l]));
      arbiter.submit(l, static_cast<double>(r) * period_s + pairs[l].phase_s,
                     airtime_ms / 1000.0);
    }
    arbiter.arbitrate();
  }
  return replica;
}

}  // namespace

WorkloadResult run_dense_room(const RunOptions& options) {
  WorkloadResult result;
  // Timed at half the host's threads: with every vCPU busy a run waits for
  // whichever thread the host stalls. On a 4-vCPU shared host, ten runs at
  // 4 threads spread their scaled rate (harness.hpp) by 10 %, six at 2
  // threads by 3 %. A run at all N threads is still checked below.
  const int threads = std::max(1, options.nproc / 2);
  SetupTimes setup;
  Inputs in = timed_setups(5, setup, [&] {
    Inputs inputs;
    inputs.room = talon::make_conference_room();
    inputs.table = measured_pattern_table(options.seed);
    inputs.assets = fresh_assets(inputs.table);
    inputs.first = std::make_unique<talon::NetworkSimulator>(
        room_config(options.seed, threads), *inputs.room, inputs.assets);
    return inputs;
  });
  result.set_e2e("setup_s", setup.reference_s(), "s");
  result.details["host.setup_wall_s"] = median(setup.wall_s);
  const bool traced = tracer().enabled();
  tracer().set_active(false);

  // --- timed loop: whole 10-round runs at N/2 threads ------------------------
  const double budget_s = traced ? 0.5 * options.seconds : options.seconds;
  std::vector<double> run_ms;
  std::vector<double> probes;
  Outcome reference;
  const auto loop_start = Clock::now();
  while (run_ms.empty() || seconds_since(loop_start) < budget_s) {
    // The first run uses the simulator set-up built; later runs build a
    // fresh one (sessions start over) outside the timed call.
    std::unique_ptr<talon::NetworkSimulator> sim = std::move(in.first);
    if (!sim) {
      sim = std::make_unique<talon::NetworkSimulator>(room_config(options.seed, threads),
                                                      *in.room, in.assets);
    }
    probes.push_back(probe_ms());
    const auto start = Clock::now();
    const talon::NetworkRunResult run = sim->run();
    const double secs = seconds_since(start);
    const Outcome outcome = outcome_of(run);
    if (run_ms.empty()) reference = outcome;
    result.check(outcome == reference, "repeated run reproduces the first run");
    run_ms.push_back(secs * 1e3);
    result.attempted += kRounds * kPairs;
  }
  result.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  // The rate of the median run on the reference host (harness.hpp).
  const double run_ref_ms = reference_median(run_ms, probes);
  result.set_e2e("work_rate", kRounds * kPairs * 1e3 / run_ref_ms, "1/s");
  result.details["dense.runs"] = static_cast<double>(run_ms.size());
  result.details["dense.run_wall_ms.p50"] = median(run_ms);
  result.details["host.probe_ms.p50"] = median(probes);
  std::printf("dense-room: %d pairs x %zu rounds at %d threads: %zu runs, %.0f "
              "link-rounds/s, run p50 %.2f ms (%.2f ms on the reference host); "
              "setup %.3f s\n",
              kPairs, kRounds, threads, run_ms.size(), kRounds * kPairs * 1e3 / run_ref_ms,
              median(run_ms), run_ref_ms, setup.reference_s());

  // --- correctness: serial run on cold assets --------------------------------
  const auto serial_assets = fresh_assets(in.table);
  talon::NetworkSimulator serial(room_config(options.seed, 1), *in.room, serial_assets);
  const auto serial_start = Clock::now();
  const talon::NetworkRunResult serial_run = serial.run();
  const double serial_ms = seconds_since(serial_start) * 1e3;
  const Outcome serial_outcome = outcome_of(serial_run);
  result.check(serial_outcome == reference, "selections identical at 1 and N/2 threads");
  talon::NetworkSimulator wide(room_config(options.seed, options.nproc), *in.room,
                               fresh_assets(in.table));
  result.check(outcome_of(wide.run()) == reference, "selections identical at N threads");
  result.check(serial_run.total_trainings == static_cast<int>(kRounds * kPairs),
               "every pair trained every round");
  const auto cache = serial_assets->engine().response_matrix().cache_stats();
  result.counters["sim.network.trainings"] =
      static_cast<std::uint64_t>(serial_run.total_trainings);
  result.counters["sim.network.deferred"] =
      static_cast<std::uint64_t>(serial_run.deferred_trainings);
  result.counters["core.panel_cache.hits"] = cache.hits;
  result.counters["core.panel_cache.misses"] = cache.misses;
  std::uint64_t selected = 0;
  for (int s : serial_outcome.selections) selected += s >= 0 ? 1 : 0;
  result.counters["sim.network.selections"] = selected;
  if (!traced) return result;

  // --- traced: the link-round split ------------------------------------------
  // kPasses serial simulator runs and kPasses traced replicas, alternating,
  // each on cold assets like the reference run above; medians and per-pass
  // means keep one slow stretch of the host from skewing the account.
  constexpr int kPasses = 3;
  std::vector<double> serial_runs_ms{serial_ms};
  std::vector<double> replica_runs_ms;
  Replica replica;
  for (int pass = 0; pass < kPasses; ++pass) {
    if (pass > 0) {
      talon::NetworkSimulator again(room_config(options.seed, 1), *in.room,
                                    fresh_assets(in.table));
      const auto start = Clock::now();
      again.run();
      serial_runs_ms.push_back(seconds_since(start) * 1e3);
    }
    tracer().set_active(true);
    const auto start = Clock::now();
    replica =
        replay_rounds(room_config(options.seed, 1), *in.room, fresh_assets(in.table));
    replica_runs_ms.push_back(seconds_since(start) * 1e3);
    tracer().set_active(false);
    result.check(replica.selections == serial_outcome.selections,
                 "traced replica reproduces the simulator's selections");
  }
  tracer().set_active(true);
  const double link_round_ms = median(serial_runs_ms);
  const double replica_ms = median(replica_runs_ms);

  // Everything per link-round of the traced replica. The channel share
  // also holds the selection phase's true-SNR probe of each chosen sector;
  // whatever no named layer covers (subset draws, object set-up, the
  // spans themselves) is unattributed, so the parts add up to the traced
  // link-round exactly.
  const double per_pass = static_cast<double>(kRounds * kPairs);
  const double n = kPasses * per_pass;
  const double traced_us = tracer().total_us("sim.network.replica") / n;
  const double layers[] = {
      tracer().self_total_us("sim.linksim.mutual_training") / n,
      tracer().total_us("channel.true_snr") / n,
      tracer().total_us("phy.measure") / n,
      tracer().total_us("driver.session.prepare_sweep") / n,
      tracer().total_us("driver.daemon.complete_prepared") / n,
      tracer().total_us("sim.contention.arbitrate") / n,
  };
  double named_us = 0.0;
  for (double v : layers) named_us += v;
  result.set_layer("sim.linksim.mutual_training_us", layers[0], "us");
  result.set_layer("channel.true_snr_us", layers[1], "us");
  result.set_layer("phy.measure_sweep_us", layers[2], "us");
  result.set_layer("driver.session.prepare_sweep_us", layers[3], "us");
  result.set_layer("driver.daemon.complete_prepared_us", layers[4], "us");
  result.set_layer("sim.contention.arbitrate_us", layers[5], "us");
  result.set_layer("sim.network.link_round_us", traced_us, "us");
  result.set_layer("sim.network.unattributed_ms", (traced_us - named_us) * per_pass / 1e3,
                   "ms");
  result.set_layer("sim.network.trainings",
                   static_cast<double>(serial_run.total_trainings), "count");
  result.set_layer("bench.trace.overhead_pct", (replica_ms / link_round_ms - 1.0) * 100.0,
                   "%");
  std::printf("traced serial link-round %.1f us (untraced %.1f us) = mutual_training "
              "self %.1f + channel %.1f + phy %.1f + prepare_sweep %.1f + "
              "complete_prepared %.1f + arbitrate %.2f + unattributed %.1f; "
              "%.1f frames/link-round\n",
              traced_us, link_round_ms * 1e3 / per_pass, layers[0], layers[1], layers[2],
              layers[3], layers[4], layers[5], traced_us - named_us,
              static_cast<double>(replica.frames) / per_pass);

  // Kernel alone on the rounds' parked sweeps with a warm workspace (a
  // first pass warms it; the timed pass must find the same peaks), and
  // the panel-cache traffic of the serial run.
  {
    talon::CorrelationWorkspace ws;
    const talon::CorrelationEngine& engine = in.assets->engine();
    std::vector<std::size_t> peaks;
    for (const auto& sweep : replica.sweeps) {
      peaks.push_back(engine.combined_argmax(sweep, ws).index);
    }
    std::size_t repeated = 0;
    for (std::size_t i = 0; i < replica.sweeps.size(); ++i) {
      std::size_t peak = 0;
      {
        Scope span("core.correlation.argmax", i);
        peak = engine.combined_argmax(replica.sweeps[i], ws).index;
      }
      repeated += peak == peaks[i] ? 1 : 0;
    }
    result.check(repeated == peaks.size(), "warm-workspace argmax repeats its peaks");
    result.set_layer("core.correlation.argmax_us",
                     median(tracer().durations_us("core.correlation.argmax")), "us");
  }
  result.set_panel_cache(cache.hits, cache.misses);
  result.set_layer("common.parallel.dispatch_us",
                   parallel_dispatch_us(threads, kPairs, 200), "us");
  result.set_layer("common.parallel.speedup", link_round_ms / quantile(run_ms, 0.5), "x");
  return result;
}

}  // namespace perfbench
