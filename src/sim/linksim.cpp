#include "src/sim/linksim.hpp"

#include "src/common/error.hpp"

namespace talon {

LinkSimulator::LinkSimulator(const Environment& env, const RadioConfig& radio,
                             const MeasurementModelConfig& measurement, Rng rng)
    : env_(&env), radio_(radio), measurement_(measurement, rng) {}

LinkView& LinkSimulator::view(const Node& tx, const Node& rx) const {
  for (std::optional<LinkView>& v : views_) {
    if (v && v->traced_for(tx.front_end(), tx.pose(), rx.front_end(), rx.pose(), *env_)) {
      return *v;
    }
  }
  std::optional<LinkView>& slot = views_[next_view_];
  next_view_ = (next_view_ + 1) % views_.size();
  return slot.emplace(tx.front_end(), tx.pose(), rx.front_end(), rx.pose(), *env_);
}

double LinkSimulator::true_snr_db(const Node& tx, int tx_sector, const Node& rx,
                                  int rx_sector) const {
  return view(tx, rx).received_power_dbm(tx_sector, rx_sector, radio_) -
         radio_.noise_floor_dbm();
}

SweepOutcome LinkSimulator::transmit_sweep(Node& tx, Node& rx,
                                           std::span<const BurstSlot> schedule,
                                           MonitorCapture* monitor) {
  SweepOutcome outcome;
  rx.firmware().begin_peer_sweep();
  int slot_index = 0;
  for (const BurstSlot& slot : schedule) {
    ++slot_index;
    if (!slot.sector_id) continue;  // silent slot
    ++outcome.transmitted_frames;
    const SswField field{
        .cdown = slot.cdown,
        .sector_id = *slot.sector_id,
        .is_initiator = true,
    };
    if (monitor != nullptr) {
      monitor->capture(Frame{
          .type = FrameType::kSectorSweep,
          .source_node = tx.id(),
          .tx_time_us = timing_.ssw_frame_us * (slot_index - 1),
          .ssw = field,
      });
    }
    const double snr =
        true_snr_db(tx, *slot.sector_id, rx, kRxQuasiOmniSectorId);
    if (auto reading = measurement_.measure(*slot.sector_id, snr)) {
      rx.firmware().on_ssw_frame(field, *reading);
      outcome.measurement.readings.push_back(*reading);
    }
  }
  outcome.feedback = rx.firmware().end_peer_sweep();
  return outcome;
}

MutualTrainingResult LinkSimulator::mutual_training(Node& initiator, Node& responder,
                                                    std::span<const BurstSlot> schedule,
                                                    MonitorCapture* monitor) {
  // Delivery of one SSW frame: channel -> measurement -> receiver firmware.
  const auto make_sweep_delivery = [this, monitor](Node& tx, Node& rx) {
    return [this, monitor, &tx, &rx](const Frame& frame) {
      if (monitor != nullptr) monitor->capture(frame);
      if (frame.type == FrameType::kSectorSweep) {
        TALON_EXPECTS(frame.ssw.has_value());
        const double snr =
            true_snr_db(tx, frame.ssw->sector_id, rx, kRxQuasiOmniSectorId);
        if (auto reading = measurement_.measure(frame.ssw->sector_id, snr)) {
          rx.firmware().on_ssw_frame(*frame.ssw, *reading);
          if (frame.feedback) rx.firmware().apply_peer_feedback(*frame.feedback);
          return true;
        }
        return false;
      }
      // Feedback/ACK: transmitted with the sender's trained TX sector.
      const double snr =
          true_snr_db(tx, tx.firmware().own_tx_sector(), rx, kRxQuasiOmniSectorId);
      if (!measurement_.measure(0, snr).has_value()) return false;
      if (frame.feedback) rx.firmware().apply_peer_feedback(*frame.feedback);
      return true;
    };
  };

  std::vector<BurstSlot> sched(schedule.begin(), schedule.end());
  MutualTrainingSession session(
      sched, sched, timing_,
      MutualTrainingSession::Callbacks{
          .deliver_to_responder = make_sweep_delivery(initiator, responder),
          .deliver_to_initiator = make_sweep_delivery(responder, initiator),
          .responder_select =
              [&initiator, &responder] {
                // Close the responder's measurement of the initiator sweep
                // and open the initiator's listening window.
                const SswFeedbackField fb = responder.firmware().end_peer_sweep();
                initiator.firmware().begin_peer_sweep();
                return fb;
              },
          .initiator_select =
              [&initiator] { return initiator.firmware().end_peer_sweep(); },
      });
  responder.firmware().begin_peer_sweep();
  return session.run();
}

double LinkSimulator::true_snr_with_weights(const Node& tx, const WeightVector& weights,
                                            const Node& rx, int rx_sector) const {
  return view(tx, rx).received_power_dbm(weights, rx_sector, radio_) -
         radio_.noise_floor_dbm();
}

SweepMeasurement LinkSimulator::receive_sector_sweep(Node& tx, Node& rx,
                                                     std::span<const int> rx_sectors) {
  SweepMeasurement out;
  const int tx_sector = tx.firmware().own_tx_sector();
  for (int rx_sector : rx_sectors) {
    const double snr = true_snr_db(tx, tx_sector, rx, rx_sector);
    if (auto reading = measurement_.measure(rx_sector, snr)) {
      out.readings.push_back(*reading);
    }
  }
  return out;
}

RefinementResult LinkSimulator::refine_tx_beam(Node& tx, Node& rx,
                                               const Direction& around,
                                               const RefinementConfig& config) {
  const auto candidates =
      make_refinement_candidates(tx.front_end().geometry(), around, config);
  return refine_beam(candidates, [this, &tx, &rx](const RefinementCandidate& c)
                         -> std::optional<double> {
    const double snr =
        true_snr_with_weights(tx, c.weights, rx, kRxQuasiOmniSectorId);
    const auto reading = measurement_.measure(0, snr);
    if (!reading) return std::nullopt;
    return reading->snr_db;
  });
}

int LinkSimulator::transmit_beacons(Node& tx, MonitorCapture* monitor) {
  int transmitted = 0;
  int slot_index = 0;
  for (const BurstSlot& slot : beacon_burst_schedule()) {
    ++slot_index;
    if (!slot.sector_id) continue;
    ++transmitted;
    if (monitor != nullptr) {
      monitor->capture(Frame{
          .type = FrameType::kBeacon,
          .source_node = tx.id(),
          .tx_time_us = timing_.ssw_frame_us * (slot_index - 1),
          .ssw = SswField{.cdown = slot.cdown,
                          .sector_id = *slot.sector_id,
                          .is_initiator = true},
      });
    }
  }
  return transmitted;
}

}  // namespace talon
