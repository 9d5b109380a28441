#include "src/sim/mesh.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/common/error.hpp"

namespace talon {
namespace {

MeshConfig tiny_config() {
  MeshConfig config;
  config.aps = 4;
  config.stas_per_ap = 2;
  config.channels = 2;
  config.trainings_per_second = 10.0;
  config.simulated_seconds = 2.0;
  config.seed = 314;
  return config;
}

TEST(MeshSimulatorTest, TopologyAssignsGridPositionsAndRoundRobinChannels) {
  MeshSimulator sim(tiny_config());
  const std::vector<MeshAp>& aps = sim.topology();
  ASSERT_EQ(aps.size(), 4u);
  EXPECT_EQ(sim.link_count(), 8);
  for (int a = 0; a < 4; ++a) {
    EXPECT_EQ(aps[static_cast<std::size_t>(a)].id, a);
    EXPECT_EQ(aps[static_cast<std::size_t>(a)].channel, a % 2);
  }
  // Square grid: two distinct rows for four APs.
  EXPECT_NE(aps[0].y_m, aps[2].y_m);
  EXPECT_NE(aps[0].x_m, aps[1].x_m);
}

TEST(MeshSimulatorTest, IgnitionWavesBringEveryLinkUp) {
  MeshConfig config = tiny_config();
  config.ignition_batch = 2;  // 8 links -> 4 ignition waves
  MeshSimulator sim(config);
  const MeshRunResult result = sim.run();

  EXPECT_EQ(result.ignited, 8u);
  EXPECT_GT(result.mean_ignition_s, 0.0);
  // Waves are staggered: the last link ignites strictly later than the
  // mean, and every link ends Up with steady-state trainings behind it.
  EXPECT_GT(result.max_ignition_s, result.mean_ignition_s);
  std::size_t up = 0;
  for (const MeshLinkReport& link : result.links) {
    EXPECT_GE(link.ignition_time_s, 0.0);
    up += link.state == LinkState::kUp ? 1 : 0;
    EXPECT_GT(link.snr_db, 0.0);
  }
  EXPECT_EQ(up, 8u);
  EXPECT_GT(result.total_trainings, 8u);
  EXPECT_GT(result.aggregate_goodput_mbps, 0.0);
  int up_links = 0;
  for (const MeshApReport& ap : result.aps) {
    up_links += ap.up_links;
    EXPECT_LE(ap.served_mbps, ap.offered_mbps);
  }
  EXPECT_EQ(up_links, 8);
}

TEST(MeshSimulatorTest, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar: the FULL run record -- every per-link double,
  // every channel counter -- compares equal at any thread count, churn
  // included.
  MeshConfig config = tiny_config();
  config.aps = 8;
  config.channels = 3;
  config.churn_probability = 0.05;
  config.threads = 1;
  const MeshRunResult baseline = MeshSimulator(config).run();
  EXPECT_GT(baseline.events_executed, 0u);

  for (int threads : {2, 4, 7}) {
    config.threads = threads;
    const MeshRunResult result = MeshSimulator(config).run();
    EXPECT_TRUE(result == baseline) << "threads=" << threads;
    EXPECT_GE(result.parallel_batches, 1u) << "threads=" << threads;
  }
}

TEST(MeshSimulatorTest, PerturbingOneLinkNeverTouchesOtherChannels) {
  // Salting link 0's substreams moves its jitter and placement draws, so
  // its own channel's arbitration may shift -- but links on the OTHER
  // channel share nothing with it and must be bit-identical. (Churn must
  // stay off: churned links consume controller ignition budget, which
  // couples channels through the shared ignition queue.)
  MeshConfig config = tiny_config();
  const MeshRunResult baseline = MeshSimulator(config).run();

  MeshConfig perturbed = config;
  perturbed.link_seed_salts = {1234567};  // link 0 only (AP 0, channel 0)
  const MeshRunResult result = MeshSimulator(perturbed).run();

  // The salt really changed link 0.
  EXPECT_NE(result.links[0].distance_m, baseline.links[0].distance_m);

  // APs 1 and 3 sit on channel 1: all their links, bit for bit.
  ASSERT_EQ(result.links.size(), baseline.links.size());
  for (std::size_t l = 0; l < result.links.size(); ++l) {
    if (baseline.links[l].channel != 1) continue;
    EXPECT_TRUE(result.links[l] == baseline.links[l]) << "link " << l;
  }
  EXPECT_TRUE(result.channels[1] == baseline.channels[1]);
}

TEST(MeshSimulatorTest, ChurnDropsLinksAndTheControllerReignitesThem) {
  MeshConfig config = tiny_config();
  config.simulated_seconds = 4.0;
  config.churn_probability = 0.2;
  const MeshRunResult result = MeshSimulator(config).run();

  std::uint64_t drops = 0;
  for (const MeshLinkReport& link : result.links) drops += link.churn_drops;
  EXPECT_GT(drops, 0u);
  // Re-ignition works: links came back after dropping.
  EXPECT_GT(result.reassociations, 0u);
  EXPECT_EQ(result.ignited, 8u);
}

TEST(MeshSimulatorTest, SaturatedChannelDefersTrainings) {
  MeshConfig config = tiny_config();
  config.aps = 8;
  config.stas_per_ap = 8;
  config.channels = 1;  // 64 links on one channel
  config.trainings_per_second = 100.0;
  config.simulated_seconds = 0.5;
  const MeshRunResult result = MeshSimulator(config).run();

  EXPECT_GT(result.deferred_trainings, 0u);
  EXPECT_GT(result.worst_defer_ms, 0.0);
  EXPECT_EQ(result.channels[0].training_airtime_share, 1.0);
}

TEST(MeshSimulatorTest, RejectsNonsenseConfigs) {
  for (auto mutate : std::vector<void (*)(MeshConfig&)>{
           [](MeshConfig& c) { c.aps = 0; },
           [](MeshConfig& c) { c.stas_per_ap = 0; },
           [](MeshConfig& c) { c.channels = 0; },
           [](MeshConfig& c) { c.trainings_per_second = 0.0; },
           [](MeshConfig& c) { c.simulated_seconds = -1.0; },
           [](MeshConfig& c) { c.ignition_batch = 0; },
           [](MeshConfig& c) { c.probes = 0; },
           [](MeshConfig& c) { c.min_sta_distance_m = 0.0; },
           [](MeshConfig& c) { c.max_sta_distance_m = 1.0; },
           [](MeshConfig& c) { c.churn_probability = 1.5; },
       }) {
    MeshConfig config = tiny_config();
    config.min_sta_distance_m = 2.0;
    mutate(config);
    EXPECT_THROW(MeshSimulator{config}, PreconditionError);
  }
}

}  // namespace
}  // namespace talon
