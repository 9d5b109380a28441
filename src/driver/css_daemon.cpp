#include "src/driver/css_daemon.hpp"

#include "src/common/error.hpp"

namespace talon {

CssDaemon::CssDaemon(std::shared_ptr<const PatternAssets> assets,
                     CssDaemonConfig defaults)
    : assets_(std::move(assets)), defaults_(defaults) {
  TALON_EXPECTS(assets_ != nullptr);
}

LinkSession& CssDaemon::add_link(int link_id, Wil6210Driver& driver, Rng rng) {
  return add_link(link_id, driver, rng, defaults_);
}

LinkSession& CssDaemon::add_link(int link_id, Wil6210Driver& driver, Rng rng,
                                 const CssDaemonConfig& config) {
  return insert_session(
      link_id,
      std::make_unique<LinkSession>(driver, assets_, config, rng, link_id));
}

LinkSession& CssDaemon::add_headless_link(int link_id, Rng rng) {
  return add_headless_link(link_id, rng, defaults_);
}

LinkSession& CssDaemon::add_headless_link(int link_id, Rng rng,
                                          const CssDaemonConfig& config) {
  return add_headless_link(link_id, rng, config, assets_);
}

LinkSession& CssDaemon::add_headless_link(
    int link_id, Rng rng, const CssDaemonConfig& config,
    std::shared_ptr<const PatternAssets> assets) {
  TALON_EXPECTS(assets != nullptr);
  return insert_session(link_id,
                        std::make_unique<LinkSession>(std::move(assets), config,
                                                      rng, link_id));
}

LinkSession& CssDaemon::insert_session(int link_id,
                                       std::unique_ptr<LinkSession> session) {
  auto [it, inserted] = sessions_.emplace(link_id, std::move(session));
  if (!inserted) {
    throw StateError("link id already has a session: " + std::to_string(link_id));
  }
  return *it->second;
}

std::optional<CssResult> CssDaemon::process_report(
    int link_id, std::vector<SectorReading> readings) {
  return session(link_id).process_report(std::move(readings));
}

LinkSession& CssDaemon::session(int link_id) {
  const auto it = sessions_.find(link_id);
  if (it == sessions_.end()) {
    throw StateError("no session for link id " + std::to_string(link_id));
  }
  return *it->second;
}

const LinkSession& CssDaemon::session(int link_id) const {
  const auto it = sessions_.find(link_id);
  if (it == sessions_.end()) {
    throw StateError("no session for link id " + std::to_string(link_id));
  }
  return *it->second;
}

bool CssDaemon::has_session(int link_id) const { return sessions_.contains(link_id); }

std::vector<int> CssDaemon::link_ids() const {
  std::vector<int> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

bool CssDaemon::joins_batch(const LinkSession& session) const {
  return session.pending_batchable() && session.assets().get() == assets_.get();
}

void CssDaemon::complete_prepared(std::map<int, std::optional<CssResult>>* out) {
  batch_links_.clear();
  batch_sweeps_.clear();
  for (auto& [id, session] : sessions_) {
    if (!session->sweep_pending() || !joins_batch(*session)) continue;
    batch_links_.push_back(session.get());
    batch_sweeps_.emplace_back(session->pending_readings());
  }
  if (!batch_links_.empty()) {
    // Batchable sessions run the stateless CSS fast path with the shared
    // default CssConfig (prepare_sweep() excludes tracking and
    // degradation, the only knobs session construction changes) over the
    // daemon's own assets (joins_batch() excludes per-link tables), so
    // one selector -- the first batchable session's -- computes every
    // member's selection bit-identically to its own.
    batch_results_.resize(batch_links_.size());
    batch_links_.front()->css().select_batch(batch_sweeps_,
                                             assets_->tx_candidates(),
                                             batch_results_, batch_ws_);
  }
  // Complete in session (map) order; batchable sessions consume their
  // batched result, the rest select with their own stateful selector.
  std::size_t j = 0;
  for (auto& [id, session] : sessions_) {
    if (!session->sweep_pending()) continue;
    const CssResult* batched = joins_batch(*session) ? &batch_results_[j++] : nullptr;
    std::optional<CssResult> result = session->complete_sweep(batched);
    if (out != nullptr) (*out)[id] = std::move(result);
  }
}

std::map<int, std::optional<CssResult>> CssDaemon::process_sweeps() {
  for (auto& [id, session] : sessions_) session->prepare_sweep();
  std::map<int, std::optional<CssResult>> out;
  complete_prepared(&out);
  return out;
}

FaultStats CssDaemon::total_fault_stats() const {
  FaultStats total;
  for (const auto& [id, session] : sessions_) total += session->fault_stats();
  return total;
}

DegradationStats CssDaemon::total_degradation_stats() const {
  DegradationStats total;
  for (const auto& [id, session] : sessions_) {
    total += session->degradation_stats();
  }
  return total;
}

LifecycleStats CssDaemon::total_lifecycle_stats() const {
  LifecycleStats total;
  for (const auto& [id, session] : sessions_) {
    total += session->lifecycle_stats();
  }
  return total;
}

}  // namespace talon
