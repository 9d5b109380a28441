#include "src/channel/environment.hpp"

#include <atomic>

#include "src/channel/pathloss.hpp"
#include "src/common/error.hpp"

namespace talon {

namespace {

/// Source of Environment::revision() stamps.
std::atomic<std::uint64_t> next_revision{1};

Vec3 mirror_across(const Reflector& r, const Vec3& p) {
  switch (r.plane) {
    case Reflector::Plane::X:
      return {2.0 * r.coordinate - p.x, p.y, p.z};
    case Reflector::Plane::Y:
      return {p.x, 2.0 * r.coordinate - p.y, p.z};
    case Reflector::Plane::Z:
      return {p.x, p.y, 2.0 * r.coordinate - p.z};
  }
  throw PreconditionError("invalid reflector plane");
}

double plane_coordinate(const Reflector& r, const Vec3& p) {
  switch (r.plane) {
    case Reflector::Plane::X:
      return p.x;
    case Reflector::Plane::Y:
      return p.y;
    case Reflector::Plane::Z:
      return p.z;
  }
  throw PreconditionError("invalid reflector plane");
}

}  // namespace

Environment::Environment()
    : revision_(next_revision.fetch_add(1, std::memory_order_relaxed)) {}

void Environment::bump_revision() {
  revision_ = next_revision.fetch_add(1, std::memory_order_relaxed);
}

RayTracedEnvironment::RayTracedEnvironment(std::string name,
                                           std::vector<Reflector> reflectors,
                                           bool line_of_sight)
    : name_(std::move(name)),
      reflectors_(std::move(reflectors)),
      reflector_enabled_(reflectors_.size(), 1),
      line_of_sight_(line_of_sight) {}

void RayTracedEnvironment::set_los_blockage_db(double db) {
  TALON_EXPECTS(db >= 0.0);
  los_blockage_db_ = db;
  bump_revision();
}

void RayTracedEnvironment::set_reflector_enabled(std::size_t index, bool enabled) {
  TALON_EXPECTS(index < reflectors_.size());
  reflector_enabled_[index] = enabled ? 1 : 0;
  bump_revision();
}

bool RayTracedEnvironment::reflector_enabled(std::size_t index) const {
  TALON_EXPECTS(index < reflectors_.size());
  return reflector_enabled_[index] != 0;
}

std::vector<Ray> RayTracedEnvironment::rays(const Vec3& tx, const Vec3& rx) const {
  const double los_distance = norm(rx - tx);
  TALON_EXPECTS(los_distance > 0.0);
  std::vector<Ray> out;
  if (line_of_sight_) {
    out.push_back(Ray{
        .departure_world = direction_of(rx - tx),
        .arrival_world = direction_of(tx - rx),
        .gain_db = line_of_sight_gain_db(los_distance) - los_blockage_db_,
    });
  }
  for (std::size_t i = 0; i < reflectors_.size(); ++i) {
    if (!reflector_enabled_[i]) continue;
    const Reflector& r = reflectors_[i];
    // Both endpoints must lie on the same side of the plane for a valid
    // single-bounce specular path.
    const double side_tx = plane_coordinate(r, tx) - r.coordinate;
    const double side_rx = plane_coordinate(r, rx) - r.coordinate;
    if (side_tx == 0.0 || side_rx == 0.0 || (side_tx > 0) != (side_rx > 0)) continue;
    const Vec3 rx_image = mirror_across(r, rx);
    const Vec3 tx_image = mirror_across(r, tx);
    const double path_len = norm(rx_image - tx);
    out.push_back(Ray{
        .departure_world = direction_of(rx_image - tx),
        .arrival_world = direction_of(tx_image - rx),
        .gain_db = line_of_sight_gain_db(path_len) - r.loss_db,
    });
  }
  TALON_EXPECTS(!out.empty());
  return out;
}

std::unique_ptr<Environment> make_anechoic_chamber() {
  return std::make_unique<RayTracedEnvironment>("anechoic", std::vector<Reflector>{});
}

std::unique_ptr<Environment> make_lab_environment() {
  // Cluttered but absorptive: one side wall and the ceiling, both lossy.
  // Nodes are placed near the origin, facing each other along x at ~1 m
  // height (see sim/scenario.cpp).
  std::vector<Reflector> reflectors{
      Reflector{Reflector::Plane::Y, 1.8, 16.0, "side wall"},
      Reflector{Reflector::Plane::Z, 2.6, 18.0, "ceiling"},
  };
  return std::make_unique<RayTracedEnvironment>("lab", std::move(reflectors));
}

std::unique_ptr<Environment> make_conference_room() {
  // "a couple of potential reflectors such as white-boards" (Sec. 6.1):
  // a whiteboard wall with low loss plus two more walls.
  std::vector<Reflector> reflectors{
      Reflector{Reflector::Plane::Y, 2.2, 11.0, "whiteboard"},
      Reflector{Reflector::Plane::Y, -2.8, 14.0, "side wall"},
      Reflector{Reflector::Plane::Z, 2.8, 16.0, "ceiling"},
  };
  return std::make_unique<RayTracedEnvironment>("conference", std::move(reflectors));
}

}  // namespace talon
