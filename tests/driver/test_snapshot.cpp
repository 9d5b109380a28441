#include "src/driver/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"
#include "src/core/link_state.hpp"
#include "src/driver/css_daemon.hpp"
#include "tests/driver/serve_testutil.hpp"

namespace talon {
namespace {

using testutil::make_report;
using testutil::make_serve_assets;

constexpr std::uint64_t kReportSeed = 2024;

CssDaemonConfig plain_config() {
  CssDaemonConfig config;
  config.probes = 6;
  return config;
}

CssDaemonConfig rich_config() {
  // Adaptive controller + path tracker + degradation: the maximal state
  // surface a session can carry without faults.
  CssDaemonConfig config;
  config.probes = 6;
  config.adaptive = true;
  config.track_path = true;
  config.degradation.enabled = true;
  return config;
}

CssDaemonConfig faulty_config() {
  CssDaemonConfig config;
  config.probes = 6;
  config.degradation.enabled = true;
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 77;
  plan->loss.probability = 0.2;
  plan->burst.enabled = true;
  plan->corruption.snr_outlier_probability = 0.1;
  plan->feedback.drop_probability = 0.3;
  config.faults = std::move(plan);
  return config;
}

/// A daemon with three headless links covering the three config shapes.
std::unique_ptr<CssDaemon> make_daemon(
    const std::shared_ptr<const PatternAssets>& assets) {
  auto daemon = std::make_unique<CssDaemon>(assets, plain_config());
  daemon->add_headless_link(1, Rng(101), plain_config());
  daemon->add_headless_link(2, Rng(102), rich_config());
  daemon->add_headless_link(3, Rng(103), faulty_config());
  return daemon;
}

void drive_rounds(CssDaemon& daemon, std::uint64_t first_round,
                  std::uint64_t rounds) {
  const PatternTable& table = daemon.assets()->patterns();
  for (std::uint64_t r = first_round; r < first_round + rounds; ++r) {
    for (int id : daemon.link_ids()) {
      daemon.process_report(id, make_report(kReportSeed, id, r, table));
    }
  }
}

std::vector<LinkSessionState> export_all(const CssDaemon& daemon) {
  std::vector<LinkSessionState> states;
  for (int id : daemon.link_ids()) {
    states.push_back(daemon.session(id).export_state());
  }
  return states;
}

TEST(Snapshot, EncodeDecodeRoundTripIsExact) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 25);

  const std::vector<LinkSessionState> states = export_all(*daemon);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);
  const std::vector<LinkSessionState> decoded = decode_session_states(bytes);
  ASSERT_EQ(decoded.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(decoded[i], states[i]) << "link " << states[i].link_id;
  }
  // Re-encoding the decode reproduces the blob byte for byte (doubles
  // travel as bit patterns -- nothing is lost to formatting).
  EXPECT_EQ(encode_session_states(decoded), bytes);
}

TEST(Snapshot, RestoreResumesByteIdenticalSelections) {
  auto assets = make_serve_assets();
  auto original = make_daemon(assets);
  drive_rounds(*original, 0, 20);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*original);

  // A fresh daemon with the same topology restores the snapshot, then
  // both process the same subsequent reports: every selection-relevant
  // bit must evolve identically.
  auto restored = make_daemon(assets);
  restore_sessions(*restored, bytes);
  EXPECT_EQ(export_all(*restored), export_all(*original));

  drive_rounds(*original, 20, 15);
  drive_rounds(*restored, 20, 15);
  const auto after_original = export_all(*original);
  const auto after_restored = export_all(*restored);
  ASSERT_EQ(after_original.size(), after_restored.size());
  for (std::size_t i = 0; i < after_original.size(); ++i) {
    EXPECT_EQ(after_restored[i], after_original[i])
        << "link " << after_original[i].link_id << " diverged after restore";
  }
  for (int id : original->link_ids()) {
    EXPECT_EQ(restored->session(id).last_installed_sector(),
              original->session(id).last_installed_sector());
  }
}

TEST(Snapshot, RoundTripCoversEveryReachableLifecycleState) {
  // Walk one degradation-enabled session through Up -> Unstable ->
  // Acquisition -> mid-backoff re-entry, snapshotting at each stop.
  auto assets = make_serve_assets();
  CssDaemonConfig config = rich_config();
  config.degradation.max_consecutive_failures = 2;
  config.degradation.recovery_rounds = 3;

  auto roundtrip_at = [&](CssDaemon& daemon, LinkState expected) {
    ASSERT_EQ(daemon.session(0).lifecycle().state(), expected)
        << to_string(expected);
    const std::vector<std::uint8_t> bytes = snapshot_sessions(daemon);
    // Two independent twins restore the same snapshot (one deliberately
    // seeded differently -- restore must fully overwrite the RNG) and
    // keep evolving identically, without perturbing the walked daemon.
    CssDaemon twin_a(assets, config);
    twin_a.add_headless_link(0, Rng(7), config);
    CssDaemon twin_b(assets, config);
    twin_b.add_headless_link(0, Rng(1000), config);
    restore_sessions(twin_a, bytes);
    restore_sessions(twin_b, bytes);
    EXPECT_EQ(twin_a.session(0).export_state(), daemon.session(0).export_state())
        << to_string(expected);
    const auto report = make_report(kReportSeed, 0, 900, assets->patterns());
    twin_a.process_report(0, report);
    twin_b.process_report(0, report);
    EXPECT_EQ(twin_a.session(0).export_state(), twin_b.session(0).export_state())
        << to_string(expected);
  };

  CssDaemon daemon(assets, config);
  daemon.add_headless_link(0, Rng(7), config);
  const PatternTable& table = assets->patterns();

  for (std::uint64_t r = 0; r < 5; ++r) {
    daemon.process_report(0, make_report(kReportSeed, 0, r, table));
  }
  {
    SCOPED_TRACE("healthy steady state");
    roundtrip_at(daemon, LinkState::kUp);
  }

  daemon.process_report(0, {});  // empty sweep = one failure
  {
    SCOPED_TRACE("one failure below the trip threshold");
    roundtrip_at(daemon, LinkState::kUnstable);
  }

  daemon.process_report(0, {});  // second consecutive failure trips
  daemon.process_report(0, {});
  {
    SCOPED_TRACE("mid-acquisition window");
    roundtrip_at(daemon, LinkState::kAcquisition);
  }

  // Serve the rest of the window on failures so re-entry fails straight
  // back into a DOUBLED backoff window, then snapshot mid-backoff.
  for (int i = 0; i < 12; ++i) daemon.process_report(0, {});
  {
    SCOPED_TRACE("mid-backoff re-entry");
    roundtrip_at(daemon, LinkState::kAcquisition);
    EXPECT_GT(daemon.session(0).lifecycle_stats().trips, 1u);
  }
}

TEST(Snapshot, RejectsBadMagicVersionTruncationAndTrailingBytes) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 5);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);

  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 0x7f;  // version
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);  // trailing garbage after the last record
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  // Every possible truncation point must be detected, never read OOB.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_session_states(cut), SnapshotError) << "len " << len;
  }
  {
    // A record length that contradicts the payload.
    std::vector<std::uint8_t> bad = bytes;
    bad[12] ^= 0x40;  // first record's length prefix
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
}

TEST(Snapshot, FuzzedHeadersNeverCrash) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 3);
  const std::vector<std::uint8_t> valid = snapshot_sessions(*daemon);

  Rng rng(1234);
  // Pure random blobs: must throw (a random u32 matching the magic is a
  // 2^-32 event), never crash or read out of bounds.
  for (int i = 0; i < 200; ++i) {
    const int len = rng.uniform_int(0, 64);
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(len));
    for (std::uint8_t& b : blob) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_THROW(decode_session_states(blob), SnapshotError);
  }
  // Single-byte mutations of a valid snapshot: decode must either reject
  // with the typed error or produce a structurally valid result --
  // anything else (crash, OOB, other exception types) fails the test.
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> blob = valid;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(blob.size()) - 1));
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    try {
      const auto states = decode_session_states(blob);
      EXPECT_LE(states.size(), 16u);  // a sane mutation keeps the count
    } catch (const SnapshotError&) {
    }
  }
}

TEST(Snapshot, RestoreTopologyMismatchLeavesDaemonUntouched) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 5);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);

  // Different link set: id 3 replaced by 4.
  CssDaemon other(assets, plain_config());
  other.add_headless_link(1, Rng(201), plain_config());
  other.add_headless_link(2, Rng(202), rich_config());
  other.add_headless_link(4, Rng(203), plain_config());
  drive_rounds(other, 0, 2);
  const auto before = export_all(other);
  EXPECT_THROW(restore_sessions(other, bytes), SnapshotError);
  EXPECT_EQ(export_all(other), before) << "failed restore must not import";

  // Missing link entirely.
  CssDaemon fewer(assets, plain_config());
  fewer.add_headless_link(1, Rng(201), plain_config());
  EXPECT_THROW(restore_sessions(fewer, bytes), SnapshotError);
}

TEST(Snapshot, RngStateRoundTripResumesTheExactStream) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) rng.uniform(0.0, 1.0);
  const std::string state = rng.save_state();
  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.uniform(0.0, 1.0));

  Rng resumed(999);  // different seed; restore must fully overwrite
  resumed.restore_state(state);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(resumed.uniform(0.0, 1.0), expected[static_cast<std::size_t>(i)]);
  }
  EXPECT_THROW(resumed.restore_state("not an engine state"), SnapshotError);
}

// The rng state text is a snapshot ingest boundary: std::mt19937_64's own
// operator>> accepts an out-of-range index (then yields a different stream)
// and ignores trailing junk, so the parser must refuse both itself.
TEST(Snapshot, RngStateRejectsMalformedTextAndLeavesTheStreamAlone) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) rng.uniform(0.0, 1.0);
  const std::string valid = rng.save_state();
  const std::string words = valid.substr(0, valid.rfind(' ') + 1);  // 312 words + ' '
  const std::string first_word = valid.substr(0, valid.find(' '));
  const std::string rest = valid.substr(valid.find(' '));

  const std::vector<std::string> malformed = {
      "",
      "   ",
      words + "999",
      words + "313",
      words + "-1",
      words + "+100",
      words + "100 junk",
      words + "100junk",
      words + "100 7",
      words,                                        // no index
      valid.substr(valid.find(' ') + 1),            // 311 words + index
      first_word + " " + valid,                     // 313 words + index
      "18446744073709551616" + rest,                // word overflows 64 bits
      "-" + valid,                                  // signed word
      "+" + valid,
      "0x1" + rest,                                 // not decimal
      first_word + "a" + rest,
  };
  Rng target(7);
  for (int i = 0; i < 5; ++i) target.uniform(0.0, 1.0);
  const std::string before = target.save_state();
  for (const std::string& text : malformed) {
    EXPECT_THROW(target.restore_state(text), SnapshotError) << '"' << text.substr(0, 40) << '"';
    EXPECT_EQ(target.save_state(), before) << "a refused text must not touch the stream";
  }
}

TEST(Snapshot, RngStateLoadsEveryTextTheStdEngineWrites) {
  // A never-drawn engine prints index 312, a drawn one 1..312; any
  // whitespace between and around the tokens is accepted. Each text loads,
  // prints back as std prints it, and resumes the std stream exactly.
  for (const int drawn : {0, 1, 311, 312, 313, 624}) {
    std::mt19937_64 reference(5489);
    for (int i = 0; i < drawn; ++i) reference();
    std::ostringstream out;
    out << reference;
    std::string spaced = out.str();
    for (char& c : spaced) {
      if (c == ' ') c = '\n';
    }
    for (const std::string& text : {out.str(), spaced, "  " + out.str() + " \t\n"}) {
      Rng rng(1);
      rng.restore_state(text);
      EXPECT_EQ(rng.save_state(), out.str()) << "after " << drawn << " draws";
      std::mt19937_64 expected = reference;
      for (int i = 0; i < 400; ++i) ASSERT_EQ(rng.engine()(), expected()) << "draw " << i;
    }
  }

  // Index 0 (std never prints it, but it is in range): the block after 313
  // draws, rewound to its start, is the stream after 312 draws.
  std::mt19937_64 reference(5489);
  for (int i = 0; i < 313; ++i) reference();
  std::ostringstream out;
  out << reference;
  const std::string at_313 = out.str();
  Rng rng(1);
  rng.restore_state(at_313.substr(0, at_313.rfind(' ') + 1) + "0");
  std::mt19937_64 expected(5489);
  for (int i = 0; i < 312; ++i) expected();
  for (int i = 0; i < 400; ++i) ASSERT_EQ(rng.engine()(), expected()) << "draw " << i;
}

}  // namespace
}  // namespace talon
