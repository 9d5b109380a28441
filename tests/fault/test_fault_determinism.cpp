// The robustness campaign's acceptance bar: a faulted multi-link run is
// bit-identical at any thread count -- selections, fault counters and
// degradation counters all replay exactly, because every fault draw is
// substream-addressed by (stream tag, link id, round).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/css.hpp"
#include "src/sim/network.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

std::shared_ptr<const PatternAssets> shared_assets() {
  const CssConfig defaults;
  return PatternAssetsRegistry::global().get_or_create(
      ExperimentWorld::instance().table, defaults.search_grid, defaults.domain);
}

const Environment& shared_room() {
  static const std::unique_ptr<Environment> room = make_conference_room();
  return *room;
}

std::shared_ptr<const FaultPlan> campaign_plan() {
  FaultPlan plan{.seed = 77};
  plan.loss.probability = 0.15;
  plan.burst.enabled = true;
  plan.corruption.snr_outlier_probability = 0.1;
  plan.corruption.floor_clamp_probability = 0.05;
  plan.ring.duplicate_probability = 0.1;
  plan.ring.stale_probability = 0.05;
  plan.ring.overflow_probability = 0.02;
  plan.ring.overflow_burst = 64;
  plan.feedback.drop_probability = 0.2;
  plan.feedback.delay_probability = 0.3;
  return std::make_shared<const FaultPlan>(plan);
}

NetworkConfig faulted_config(int threads) {
  NetworkConfig config;
  config.links = 3;
  config.rounds = 6;
  config.seed = 21;
  config.threads = threads;
  config.session.faults = campaign_plan();
  config.session.degradation.enabled = true;
  config.session.degradation.max_consecutive_failures = 2;
  config.session.degradation.recovery_rounds = 2;
  return config;
}

struct Decision {
  bool selected;
  int sector;
  double snr;
  std::size_t probes;

  bool operator==(const Decision&) const = default;
};

std::vector<Decision> decisions(const NetworkRunResult& result) {
  std::vector<Decision> out;
  for (const NetworkRound& round : result.rounds) {
    for (const LinkRoundOutcome& link : round.links) {
      out.push_back(Decision{.selected = link.selected,
                             .sector = link.sector_id,
                             .snr = link.snr_db,
                             .probes = link.probes});
    }
  }
  return out;
}

TEST(FaultDeterminismTest, FaultedRunIsBitIdenticalAcrossThreadCounts) {
  NetworkSimulator serial(faulted_config(1), shared_room(), shared_assets());
  const NetworkRunResult baseline = serial.run();
  const std::vector<Decision> expected = decisions(baseline);

  // The plan actually fired: a quiet campaign would make this test
  // vacuous.
  EXPECT_GT(baseline.fault_totals.probes_lost, 0u);
  EXPECT_GT(baseline.fault_totals.feedback_drops, 0u);

  for (int threads : {2, 4, 7}) {
    NetworkSimulator sim(faulted_config(threads), shared_room(), shared_assets());
    const NetworkRunResult result = sim.run();
    EXPECT_EQ(decisions(result), expected) << "threads=" << threads;
    EXPECT_EQ(result.fault_totals, baseline.fault_totals) << "threads=" << threads;
    EXPECT_EQ(result.degradation_totals, baseline.degradation_totals)
        << "threads=" << threads;
  }
}

TEST(FaultDeterminismTest, PerLinkFaultCountersReplayExactly) {
  NetworkSimulator a(faulted_config(1), shared_room(), shared_assets());
  NetworkSimulator b(faulted_config(7), shared_room(), shared_assets());
  a.run();
  b.run();
  for (int l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.daemon().session(l).fault_stats(), b.daemon().session(l).fault_stats())
        << "link " << l;
    EXPECT_EQ(a.daemon().session(l).degradation_stats(),
              b.daemon().session(l).degradation_stats())
        << "link " << l;
  }
}

TEST(FaultDeterminismTest, PerturbingOneLinkKeepsOtherLinksFaultsIntact) {
  // Fault substreams are keyed by (plan seed, link id, round) only, so
  // perturbing link 1's session RNG cannot move any other link's faults.
  NetworkConfig base = faulted_config(2);
  NetworkSimulator baseline_sim(base, shared_room(), shared_assets());
  baseline_sim.run();

  NetworkConfig perturbed = base;
  perturbed.link_seed_salts = {0, 77, 0};
  NetworkSimulator perturbed_sim(perturbed, shared_room(), shared_assets());
  perturbed_sim.run();

  for (int l : {0, 2}) {
    EXPECT_EQ(perturbed_sim.daemon().session(l).fault_stats(),
              baseline_sim.daemon().session(l).fault_stats())
        << "link " << l;
  }
}

TEST(FaultDeterminismTest, FaultFreeRunsReportZeroTotals) {
  NetworkConfig config;
  config.links = 2;
  config.rounds = 2;
  config.seed = 5;
  NetworkSimulator sim(config, shared_room(), shared_assets());
  const NetworkRunResult result = sim.run();
  EXPECT_EQ(result.fault_totals, FaultStats{});
  EXPECT_EQ(result.degradation_totals, DegradationStats{});
}

}  // namespace
}  // namespace talon
