// Simulates over-the-air beam-training exchanges between two nodes.
//
// For every slot of a burst schedule the transmitter switches to the
// slot's sector, the channel fixes the true SNR at the receiver's
// quasi-omni sector, and the receiver's measurement model decides whether
// the frame decodes and what SNR/RSSI the firmware reports. Decoded SSW
// frames are delivered into the receiver's FullMacFirmware exactly as on
// the real chip; a monitor node may overhear everything transmitted.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>

#include "src/channel/environment.hpp"
#include "src/channel/link.hpp"
#include "src/core/refinement.hpp"
#include "src/mac/monitor.hpp"
#include "src/mac/schedule.hpp"
#include "src/mac/sweep.hpp"
#include "src/mac/timing.hpp"
#include "src/phy/measurement.hpp"
#include "src/sim/node.hpp"

namespace talon {

/// Result of one transmit sector sweep.
struct SweepOutcome {
  /// What the receiver's firmware measured (decoded frames only).
  SweepMeasurement measurement;
  /// The feedback field the receiver produced (stock argmax or override).
  SswFeedbackField feedback;
  /// Frames actually transmitted (one per non-silent slot).
  int transmitted_frames{0};
};

/// Every channel evaluation goes through a small memo of LinkViews
/// (channel/link.hpp): a (tx, rx) pair is traced once and reused by every
/// frame, sector and caller until a front-end, a pose or the environment's
/// revision changes, when it is traced again. Results are bit-identical to
/// tracing afresh. The memo makes even the const true-SNR queries mutate
/// the instance, so one LinkSimulator must be used by one thread at a
/// time; parallel callers (the network's per-link phase, the experiment
/// cells, the mobility arms) each own theirs.
class LinkSimulator {
 public:
  LinkSimulator(const Environment& env, const RadioConfig& radio,
                const MeasurementModelConfig& measurement, Rng rng);

  /// True link SNR for an arbitrary sector pair at the current poses.
  /// Draws no randomness.
  double true_snr_db(const Node& tx, int tx_sector, const Node& rx,
                     int rx_sector) const;

  /// Run one TXSS burst from `tx` through `schedule`; the receiver listens
  /// on its quasi-omni sector and its firmware accumulates the readings.
  SweepOutcome transmit_sweep(Node& tx, Node& rx,
                              std::span<const BurstSlot> schedule,
                              MonitorCapture* monitor = nullptr);

  /// Run one beacon burst (no firmware feedback; mainly for monitoring).
  int transmit_beacons(Node& tx, MonitorCapture* monitor = nullptr);

  /// Run the complete bidirectional TXSS protocol (initiator sweep,
  /// responder sweep with feedback, SSW-Feedback, SSW-ACK) through both
  /// nodes' firmware. Each side sweeps `schedule`; management frames
  /// (feedback/ACK) are sent with the sender's freshly selected sector and
  /// can be lost like any other frame.
  MutualTrainingResult mutual_training(Node& initiator, Node& responder,
                                       std::span<const BurstSlot> schedule,
                                       MonitorCapture* monitor = nullptr);

  /// True link SNR for an arbitrary AWV at the transmitter. Draws no
  /// randomness.
  double true_snr_with_weights(const Node& tx, const WeightVector& weights,
                               const Node& rx, int rx_sector) const;

  /// Receive sector sweep (RXSS): the transmitter repeats frames on its
  /// (fixed) trained TX sector while the receiver cycles its own sectors
  /// and records one reading per receive sector. The Talon never does
  /// this ("the same quasi omni-directional sector is always used for
  /// reception", Sec. 4.1); this is the extension that quantifies what
  /// that leaves on the table. Returns the per-RX-sector measurement; the
  /// receiver's firmware is not involved (readings are local by nature).
  SweepMeasurement receive_sector_sweep(Node& tx, Node& rx,
                                        std::span<const int> rx_sectors);

  /// BRP-style refinement: the transmitter tries fine-quantized AWVs
  /// around `around` (typically the CSS direction estimate), the receiver
  /// reports each probe's SNR, the best AWV wins. Probe frames can be lost
  /// like any other frame.
  RefinementResult refine_tx_beam(Node& tx, Node& rx, const Direction& around,
                                  const RefinementConfig& config = {});

  const TimingModel& timing() const { return timing_; }
  const RadioConfig& radio() const { return radio_; }

 private:
  /// The memoized view of tx -> rx at the current poses and environment
  /// revision, traced on a miss into the older of the two entries (one
  /// per direction of a mutual training).
  LinkView& view(const Node& tx, const Node& rx) const;

  const Environment* env_;
  RadioConfig radio_;
  MeasurementModel measurement_;
  TimingModel timing_;
  mutable std::array<std::optional<LinkView>, 2> views_;
  mutable std::size_t next_view_{0};
};

}  // namespace talon
