#include "perfbench/src/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/common/parallel.hpp"
#include "src/core/css.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/scenario.hpp"

namespace perfbench {

void Tracer::enable(std::size_t reserve) {
  allowed_ = true;
  active_ = true;
  spans_.reserve(reserve);
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  if (!active_) return -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t request) {
  if (!active_) return -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::adopt(std::int32_t child, std::int32_t parent) {
  if (child < 0 || parent < 0) return;
  spans_[static_cast<std::size_t>(child)].parent = parent;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::total_us(const char* name) const {
  double total = 0.0;
  for (double d : durations_us(name)) total += d;
  return total;
}

double Tracer::self_total_us(const char* name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    const std::int64_t self_ns = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    total += static_cast<double>(self_ns) / 1e3;
  }
  return total;
}

std::size_t Tracer::count(const char* name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& s) { return std::strcmp(s.name, name) == 0; }));
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write span dump " << path << "\n";
    return;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t k =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double probe_ms(int rounds) {
  // Four independent multiply-add chains over two 128 KiB arrays (they stay
  // in L2); one element is rewritten per pass so no pass can be folded away.
  static std::vector<double> a(16384, 1.0001);
  static const std::vector<double> b(16384, 0.9999);
  const auto start = Clock::now();
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (int pass = 0; pass < 750 * rounds; ++pass) {
    for (std::size_t i = 0; i < a.size(); i += 4) {
      acc[0] += a[i] * b[i];
      acc[1] += a[i + 1] * b[i + 1];
      acc[2] += a[i + 2] * b[i + 2];
      acc[3] += a[i + 3] * b[i + 3];
    }
    a[static_cast<std::size_t>(pass) % a.size()] = 1.0 + acc[0] * 1e-12;
  }
  volatile double sink = acc[0] + acc[1] + acc[2] + acc[3];
  (void)sink;
  return seconds_since(start) * 1e3 / rounds;
}

double reference_median(const std::vector<double>& unit,
                        const std::vector<double>& probe_ms) {
  std::vector<double> scaled(unit.size());
  for (std::size_t i = 0; i < unit.size(); ++i) {
    scaled[i] = unit[i] * kReferenceProbeMs / probe_ms[i];
  }
  return median(std::move(scaled));
}

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void WorkloadResult::set_panel_cache(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = std::max<std::uint64_t>(1, hits + misses);
  set_layer("core.panel_cache.hits", static_cast<double>(hits), "count");
  set_layer("core.panel_cache.misses", static_cast<double>(misses), "count");
  set_layer("core.panel_cache.hit_ratio",
            static_cast<double>(hits) / static_cast<double>(lookups), "ratio");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

talon::PatternTable measured_pattern_table(std::uint64_t campaign_seed) {
  Scope span("measure.campaign");
  talon::Scenario chamber = talon::make_anechoic_scenario(kDutSeed);
  talon::CampaignConfig config;
  config.azimuth = talon::make_axis(-90.0, 90.0, 1.8);
  config.elevation = talon::make_axis(0.0, 32.4, 3.6);
  config.repetitions = 3;
  config.seed = campaign_seed;
  return talon::measure_sector_patterns(chamber, config).take_table();
}

std::shared_ptr<const talon::PatternAssets> fresh_assets(
    const talon::PatternTable& table) {
  const talon::CssConfig defaults;
  return std::make_shared<const talon::PatternAssets>(table, defaults.search_grid,
                                                      defaults.domain);
}

double parallel_dispatch_us(int threads, std::size_t width, int calls) {
  std::vector<std::uint64_t> sink(width, 0);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int c = 0; c < calls; ++c) {
    const std::int64_t start = now_ns();
    {
      Scope span("common.parallel.dispatch", static_cast<std::uint64_t>(c));
      talon::parallel_for(width, [&sink](std::size_t i) { ++sink[i]; },
                          talon::ParallelOptions{.threads = threads});
    }
    us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return median(std::move(us));
}

}  // namespace perfbench
