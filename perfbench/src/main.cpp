// css_bench: one workload of the CSS-stack benchmark per invocation.
//
//   css_bench --workload <serve-fleet|dense-room|mesh-city|replay-fig7>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints a human-readable account of the run and, as the last line, one
// JSON object with the correctness verdict, the operation counts, every
// metric the workload measured, its exact work counters and the host
// metadata. perfbench/run.py builds this binary and turns that line into
// the benchmark's result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/src/harness.hpp"
#include "src/common/cpufeatures.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::WorkloadResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "css_bench: %s\nusage: css_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be an integer");
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_path = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const unsigned hw = std::thread::hardware_concurrency();
  options.nproc = hw == 0 ? 1 : static_cast<int>(hw);
  return options;
}

void print_metrics(const char* key, const std::map<std::string, Metric>& metrics) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

bool all_finite(const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  if (options.trace) perfbench::tracer().enable(1u << 20);

  WorkloadResult result;
  try {
    if (options.workload == "serve-fleet") {
      result = perfbench::run_serve_fleet(options);
    } else if (options.workload == "dense-room") {
      result = perfbench::run_dense_room(options);
    } else if (options.workload == "mesh-city") {
      result = perfbench::run_mesh_city(options);
    } else if (options.workload == "replay-fig7") {
      result = perfbench::run_replay_fig7(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "css_bench: %s threw: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  const perfbench::Tracer& trace = perfbench::tracer();
  if (options.trace && trace.count("measure.campaign") > 0) {
    const double campaign_us = perfbench::median(trace.durations_us("measure.campaign"));
    result.set_layer("measure.campaign_s", campaign_us / 1e6, "s");
  }
  result.check(all_finite(result.end_to_end) && all_finite(result.per_layer),
               "every metric is finite");
  if (options.trace && !options.trace_path.empty()) {
    perfbench::tracer().write(options.trace_path);
  }

  std::printf("\n%s seed %llu: %llu attempted, %llu failed (fail_frac %.6g)\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted));
  for (const auto& [name, metric] : result.end_to_end) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const auto& [name, metric] : result.per_layer) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics("end_to_end", result.end_to_end);
  std::printf(",");
  print_metrics("per_layer", result.per_layer);
  std::printf(",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : result.counters) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  std::printf("},\"details\":{");
  first = true;
  for (const auto& [name, value] : result.details) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : -1.0);
    first = false;
  }
  std::printf("},\"host\":{\"nproc\":%d,\"simd\":\"%s\",\"build_type\":\"%s\","
              "\"cxx_flags\":\"%s\",\"compiler\":\"%s\",\"traced\":%s,"
              "\"trace_spans\":%zu}}\n",
              options.nproc,
              std::string(talon::simd_level_name(talon::active_simd_level())).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, __VERSION__,
              options.trace ? "true" : "false", perfbench::tracer().spans().size());
  return result.failed == 0 ? 0 : 3;
}
