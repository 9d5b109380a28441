#include "src/driver/serve.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/histogram.hpp"
#include "src/common/rng.hpp"
#include "src/driver/css_daemon.hpp"
#include "tests/driver/serve_testutil.hpp"

namespace talon {
namespace {

using testutil::make_report;
using testutil::make_serve_assets;

constexpr std::uint64_t kReportSeed = 555;
constexpr int kLinks = 5;
constexpr std::uint64_t kRounds = 30;

CssDaemonConfig session_config() {
  // Exercise the stateful selectors: adaptive probe control, path
  // tracking and confidence-gated degradation all ride along.
  CssDaemonConfig config;
  config.probes = 6;
  config.adaptive = true;
  config.track_path = true;
  config.degradation.enabled = true;
  return config;
}

Rng link_rng(int link_id) { return Rng(1000 + static_cast<std::uint64_t>(link_id)); }

/// Drop the panel-cache lines from a scrape. The shared response-matrix
/// cache is populated concurrently, so the hit/miss SPLIT (not the
/// selections) may vary with the thread count when two links race on the
/// same subset key; everything else must be byte-identical.
std::string without_cache_lines(const std::string& scrape) {
  std::istringstream in(scrape);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("serve_panel_cache") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// The value of the unlabelled counter `name` in a scrape.
std::uint64_t scraped_counter(const std::string& scrape, const std::string& name) {
  std::istringstream in(scrape);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stoull(line.substr(name.size() + 1));
  }
  ADD_FAILURE() << name << " is missing from the scrape";
  return 0;
}

TEST(ServeDeterminism, AsyncMatchesSyncBitIdenticallyAtAnyThreadCount) {
  // Reference: the same per-link report sequences through the SYNCHRONOUS
  // API, one link at a time.
  auto sync_assets = make_serve_assets();
  CssDaemon sync(sync_assets, session_config());
  for (int id = 0; id < kLinks; ++id) {
    sync.add_headless_link(id, link_rng(id), session_config());
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (int id = 0; id < kLinks; ++id) {
      sync.process_report(id,
                          make_report(kReportSeed, id, r, sync_assets->patterns()));
    }
  }
  std::vector<LinkSessionState> expected;
  for (int id = 0; id < kLinks; ++id) {
    expected.push_back(sync.session(id).export_state());
  }

  std::string reference_scrape;
  for (const int threads : {1, 2, 4, 7}) {
    auto assets = make_serve_assets();
    ServeConfig serve_config;
    serve_config.threads = threads;
    serve_config.measure_latency = false;  // scrapes must be deterministic
    ServeDaemon serve(assets, session_config(), serve_config);
    for (int id = 0; id < kLinks; ++id) {
      serve.add_link(id, link_rng(id));
    }
    // Interleave submissions round-major (any per-link-order-preserving
    // interleaving must produce the same result), then drain on this
    // thread with the configured worker fan-out.
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (int id = 0; id < kLinks; ++id) {
        serve.submit(id, make_report(kReportSeed, id, r, assets->patterns()));
      }
    }
    EXPECT_EQ(serve.drain_all(), kLinks * kRounds) << "threads=" << threads;
    EXPECT_EQ(serve.processed(), serve.submitted());
    EXPECT_EQ(serve.rejected(), 0u);

    for (int id = 0; id < kLinks; ++id) {
      EXPECT_EQ(serve.daemon().session(id).export_state(), expected[id])
          << "threads=" << threads << " link=" << id
          << ": async selection state diverged from the synchronous run";
    }
    const std::string scrape = without_cache_lines(serve.scrape());
    if (reference_scrape.empty()) {
      reference_scrape = scrape;
      EXPECT_NE(scrape.find("serve_reports_processed_total 150"),
                std::string::npos);
    } else {
      EXPECT_EQ(scrape, reference_scrape)
          << "threads=" << threads << ": telemetry diverged across thread counts";
    }
  }
}

TEST(ServeDeterminism, HotSwapMidStreamDropsNothingAndRebindsEveryLink) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 256;
  serve_config.threads = 2;
  ServeDaemon serve(assets, session_config(), serve_config);
  constexpr int kSwapLinks = 4;
  for (int id = 0; id < kSwapLinks; ++id) serve.add_link(id, link_rng(id));
  serve.start();
  ASSERT_TRUE(serve.running());

  constexpr std::uint64_t kPerPhase = 40;
  auto submit_phase = [&serve, &assets](std::uint64_t first) {
    // Two producers, two links each, submitting concurrently with the
    // consumer (and with the swap below).
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&serve, &assets, p, first] {
        for (std::uint64_t r = first; r < first + kPerPhase; ++r) {
          for (int id = 2 * p; id < 2 * p + 2; ++id) {
            serve.submit(id, make_report(kReportSeed, id, r, assets->patterns()));
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
  };

  submit_phase(0);
  // Publish a recalibrated table while the consumer is mid-stream; no
  // reader stalls, and every link lazily rebinds.
  auto recalibrated = make_serve_assets(0.7);
  serve.swap_assets(recalibrated);
  EXPECT_EQ(serve.assets_epoch(), 1u);
  submit_phase(kPerPhase);
  serve.stop();
  ASSERT_FALSE(serve.running());
  serve.drain_all();  // anything accepted in the stop window

  // Zero drops: everything submitted was processed exactly once.
  EXPECT_EQ(serve.submitted(), 2 * kPerPhase * kSwapLinks);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.rejected(), 0u);
  std::uint64_t rounds = 0;
  for (int id = 0; id < kSwapLinks; ++id) {
    rounds += serve.daemon().session(id).rounds();
    // Every session processed post-swap reports, so all ride the new
    // generation now.
    EXPECT_EQ(serve.daemon().session(id).assets().get(), recalibrated.get());
  }
  EXPECT_EQ(rounds, serve.processed());
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(kSwapLinks));
  EXPECT_EQ(serve.current_assets().get(), recalibrated.get());

  // measure_latency is on by default: every processed report lands in the
  // selection-latency histogram, and none overflows its last bucket.
  const LatencyHistogram& latency =
      serve.telemetry().histogram("serve_selection_latency_us");
  EXPECT_EQ(latency.count(), serve.processed());
  bool saturated = true;
  latency.quantile_bound_us(0.99, &saturated);
  EXPECT_FALSE(saturated);

  // The scrape's panel-cache series follow the current generation. The
  // sessions above select through the confidence path, whose one-shot
  // subsets skip the panel cache; a link on the default config builds a
  // panel for its report on the new generation.
  serve.add_link(kSwapLinks, link_rng(kSwapLinks), CssDaemonConfig{});
  serve.submit(kSwapLinks, make_report(kReportSeed, kSwapLinks, 0, assets->patterns()));
  serve.drain_all();
  const std::uint64_t misses =
      recalibrated->engine().response_matrix().cache_stats().misses;
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(scraped_counter(serve.scrape(), "serve_panel_cache_misses_total"), misses);
}

TEST(ServeDeterminism, TrySubmitAppliesBackpressureWhenFull) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 8;
  serve_config.measure_latency = false;
  ServeDaemon serve(assets, {}, serve_config);
  serve.add_link(0, link_rng(0));

  const auto report = make_report(kReportSeed, 0, 0, assets->patterns());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(serve.try_submit(0, report));
  }
  // Queue full, consumer stopped: the report is rejected, not dropped
  // silently -- the rejection is the caller's signal to retry or shed.
  EXPECT_FALSE(serve.try_submit(0, report));
  EXPECT_EQ(serve.rejected(), 1u);
  EXPECT_EQ(serve.submitted(), 8u);
  EXPECT_EQ(serve.drain_all(), 8u);
  EXPECT_TRUE(serve.try_submit(0, report));
  EXPECT_EQ(serve.drain_all(), 1u);
  EXPECT_EQ(serve.daemon().session(0).rounds(), 9u);
}

TEST(ServeDeterminism, ConcurrentProducersOnOneLinkLoseNothing) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 64;
  ServeDaemon serve(assets, {}, serve_config);
  serve.add_link(0, link_rng(0));
  serve.start();

  // Three producers hammer the SAME link. Each producer's reports are
  // served in its own submission order, the three streams interleave in
  // queue-claim order, and nothing is lost or duplicated.
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 150;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&serve, &assets, p] {
      for (std::uint64_t r = 0; r < kPerProducer; ++r) {
        serve.submit(0, make_report(kReportSeed, p, r, assets->patterns()));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  serve.stop();
  serve.drain_all();

  EXPECT_EQ(serve.submitted(), kProducers * kPerProducer);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.daemon().session(0).rounds(), kProducers * kPerProducer);
}

TEST(ServeDeterminism, SwapsUnderRacingProducersServeEachReportOnItsGeneration) {
  // Three producers submit to every link while the consumer runs, and the
  // writer swaps A -> B -> C once a third of each phase is served. A
  // report accepted after a swap returns must be served on the new
  // generation. On the default config each served report makes at most
  // one panel lookup on its generation, so the older generations' lookups
  // are bounded by the reports accepted before the swap returned (each
  // producer may have pushed one report it has not counted yet). After
  // the producers finish, the writer submits one last report per link, so
  // every session ends the phase on the new generation, having rebound
  // exactly once.
  auto a = make_serve_assets();
  auto b = make_serve_assets(0.7);
  auto c = make_serve_assets(1.4);
  auto lookups = [](const std::shared_ptr<const PatternAssets>& generation) {
    const auto stats = generation->engine().response_matrix().cache_stats();
    return stats.hits + stats.misses;
  };
  ServeConfig serve_config;
  serve_config.queue_capacity = 64;  // keeps the producers busy mid-phase
  serve_config.threads = 2;
  serve_config.measure_latency = false;
  ServeDaemon serve(a, {}, serve_config);
  constexpr int kSwapLinks = 6;
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 40;
  constexpr std::uint64_t kPerPhase = (kProducers * kPerProducer + 1) * kSwapLinks;
  for (int id = 0; id < kSwapLinks; ++id) serve.add_link(id, link_rng(id));

  std::uint64_t first_round = 0;
  // Runs one phase; returns the bound on reports accepted before the swap.
  auto swap_phase = [&](const std::shared_ptr<const PatternAssets>& next) {
    // Reports are made up front, so the producers push as fast as the
    // consumer pops and a drain cycle straddling the swap pops reports
    // from both sides of it.
    std::vector<std::vector<std::pair<int, std::vector<SectorReading>>>> reports(
        kProducers);
    for (int p = 0; p < kProducers; ++p) {
      for (std::uint64_t r = first_round; r < first_round + kPerProducer; ++r) {
        for (int id = 0; id < kSwapLinks; ++id) {
          reports[p].emplace_back(id, make_report(kReportSeed + p, id, r, a->patterns()));
        }
      }
    }
    const std::uint64_t processed_before = serve.processed();
    serve.start();
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&serve, &reports, p] {
        for (auto& [link, readings] : reports[p]) serve.submit(link, std::move(readings));
      });
    }
    while (serve.processed() - processed_before < kPerProducer * kSwapLinks) {
      std::this_thread::yield();
    }
    serve.swap_assets(next);
    const std::uint64_t accepted_before_swap = serve.submitted() + kProducers;
    for (std::thread& t : producers) t.join();
    for (int id = 0; id < kSwapLinks; ++id) {
      serve.submit(id, make_report(kReportSeed, id, first_round + kPerProducer,
                                   a->patterns()));
    }
    serve.stop();
    first_round += kPerProducer + 1;
    return accepted_before_swap;
  };

  const std::uint64_t before_b = swap_phase(b);
  EXPECT_GT(lookups(a), 0u);
  EXPECT_LE(lookups(a), before_b);
  EXPECT_EQ(serve.submitted(), kPerPhase);
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(kSwapLinks));
  for (int id = 0; id < kSwapLinks; ++id) {
    EXPECT_EQ(serve.daemon().session(id).assets().get(), b.get()) << "link=" << id;
  }

  const std::uint64_t before_c = swap_phase(c);
  EXPECT_GT(lookups(b), 0u);
  EXPECT_GT(lookups(c), 0u);
  EXPECT_LE(lookups(a) + lookups(b), before_c);
  EXPECT_EQ(serve.assets_epoch(), 2u);
  EXPECT_EQ(serve.submitted(), 2 * kPerPhase);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.rejected(), 0u);
  EXPECT_EQ(serve.dropped(), 0u);
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(2 * kSwapLinks));
  for (int id = 0; id < kSwapLinks; ++id) {
    EXPECT_EQ(serve.daemon().session(id).assets().get(), c.get()) << "link=" << id;
  }

  // Sessions own their generation: with every session on C, the test's
  // reference is B's last owner.
  const std::weak_ptr<const PatternAssets> retired = b;
  b.reset();
  EXPECT_TRUE(retired.expired());
}

TEST(ServeDeterminism, GuardsItsSingleConsumerAndTopologyContracts) {
  auto assets = make_serve_assets();
  ServeDaemon serve(assets);
  serve.add_link(3, link_rng(3));
  EXPECT_THROW(serve.add_link(3, link_rng(3)), StateError);  // duplicate id
  EXPECT_THROW(serve.submit(99, {}), StateError);            // unknown link
  serve.start();
  EXPECT_THROW(serve.add_link(4, link_rng(4)), StateError);  // frozen while running
  EXPECT_THROW(serve.drain_all(), StateError);  // consumer owns the queue
  serve.stop();
  EXPECT_NO_THROW(serve.add_link(4, link_rng(4)));
  EXPECT_EQ(serve.daemon().session_count(), 2u);
}

TEST(ServeHostileInput, NanSnrReportIsServedAndDaemonKeepsServing) {
  // One report with a NaN SNR reaches the consumer thread. The reading is
  // dropped like a missed probe: the report is processed, and the daemon
  // serves the reports after it. Both the batched stateless path and the
  // stateful (tracking, degradation) path are exercised.
  auto assets = make_serve_assets();
  for (const CssDaemonConfig& config : {CssDaemonConfig{}, session_config()}) {
    ServeDaemon serve(assets, config);
    serve.add_link(0, link_rng(0));
    serve.start();
    auto hostile = make_report(kReportSeed, 0, 0, assets->patterns());
    hostile[2].snr_db = std::numeric_limits<double>::quiet_NaN();
    serve.submit(0, hostile);
    for (std::uint64_t r = 1; r < 6; ++r) {
      serve.submit(0, make_report(kReportSeed, 0, r, assets->patterns()));
    }
    serve.stop();
    serve.drain_all();
    EXPECT_EQ(serve.processed(), 6u);
    EXPECT_EQ(serve.daemon().session(0).rounds(), 6u);
    const std::optional<int>& installed =
        serve.daemon().session(0).last_installed_sector();
    ASSERT_TRUE(installed.has_value());
    EXPECT_TRUE(assets->patterns().contains(*installed));
  }
}

TEST(ServeHostileInput, ThrowingLinkIsQuarantinedOthersKeepServing) {
  // In the dB correlation domain an all-0 dB sweep has a zero probe norm,
  // which the correlation rejects with a PreconditionError. That report
  // quarantines its link -- counted, with the link's later reports
  // dropped and counted -- while the other links keep being served, on
  // the consumer thread and across a restart.
  auto assets = std::make_shared<const PatternAssets>(
      testutil::synthetic_table(), testutil::synthetic_grid(), CorrelationDomain::kDb);
  ServeDaemon serve(assets, CssDaemonConfig{}, ServeConfig{.threads = 3});
  for (int l = 0; l < 3; ++l) serve.add_link(l, link_rng(l));
  serve.start();
  for (std::uint64_t r = 0; r < 5; ++r) {
    for (int l = 0; l < 3; ++l) {
      auto report = make_report(kReportSeed, l, r, assets->patterns());
      if (l == 1 && r == 2) {
        for (SectorReading& reading : report) reading.snr_db = reading.rssi_dbm = 0.0;
      }
      serve.submit(l, std::move(report));
    }
  }
  serve.stop();
  serve.drain_all();
  EXPECT_EQ(serve.link_errors(), 1u);
  EXPECT_EQ(serve.dropped(), 3u);  // rounds 2, 3 and 4 of link 1
  EXPECT_EQ(serve.processed(), 12u);
  EXPECT_EQ(serve.daemon().session(0).rounds(), 5u);
  EXPECT_EQ(serve.daemon().session(2).rounds(), 5u);

  serve.start();
  serve.submit(0, make_report(kReportSeed, 0, 5, assets->patterns()));
  serve.submit(1, make_report(kReportSeed, 1, 5, assets->patterns()));
  serve.stop();
  serve.drain_all();
  EXPECT_EQ(serve.daemon().session(0).rounds(), 6u);
  EXPECT_EQ(serve.dropped(), 4u);
  EXPECT_EQ(serve.submitted(), serve.processed() + serve.dropped());
  const std::string scrape = serve.scrape();
  EXPECT_NE(scrape.find("serve_link_errors_total 1\n"), std::string::npos);
  EXPECT_NE(scrape.find("serve_reports_dropped_total 4\n"), std::string::npos);
}

}  // namespace
}  // namespace talon
