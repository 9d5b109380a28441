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

void CssDaemon::complete_prepared(std::map<int, std::optional<CssResult>>* out) {
  for (auto& [id, session] : sessions_) {
    if (!session->sweep_pending()) continue;
    std::optional<CssResult> result = session->complete_sweep();
    if (out != nullptr) (*out)[id] = std::move(result);
  }
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
