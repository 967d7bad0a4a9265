// roads_perfbench: one benchmark process — one workload, one seed, one
// timed phase. Prints a single JSON object on stdout (metrics with
// units, exact-metric fingerprint, output checks, host facts) and exits
// 1 when any output check fails. perfbench/run.py runs it.
//
//   roads_perfbench --workload query|churn|serve --seed N
//                   [--seconds S] [--trace 0|1] [--spans-out FILE] [--tiny]
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_report(const perfbench::Options& o, const perfbench::Report& r) {
  std::printf("{\"workload\": ");
  print_json_string(o.workload);
  std::printf(", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d",
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  std::printf(", \"fingerprint\": \"%016llx\", \"timed_wall_s\": %.17g",
              static_cast<unsigned long long>(r.fingerprint), r.timed_wall_s);
  std::printf(", \"attempted\": %zu, \"failed\": %zu, \"checks\": %zu",
              r.attempted, r.failed, r.checks);
  std::printf(", \"failures\": [");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(r.failures[i]);
  }
  std::printf("], \"host\": {\"nproc\": %u, \"compiler\": ",
              std::thread::hardware_concurrency());
  print_json_string(PERFBENCH_CXX_ID);
  std::printf(", \"build_type\": ");
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"lto\": %s}", PERFBENCH_LTO ? "true" : "false");
  std::printf(", \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s", i > 0 ? ", " : "");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf(", \"exact\": %s}", m.exact ? "true" : "false");
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-out" && has_value) {
      o.spans_out = argv[++i];
    } else {
      std::fprintf(stderr, "roads_perfbench: bad argument '%s'\n", argv[i]);
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    if (!parse(argc, argv, o)) {
      std::fprintf(stderr,
                   "usage: roads_perfbench --workload query|churn|serve "
                   "--seed N [--seconds S] [--trace 0|1] [--spans-out FILE] "
                   "[--tiny]\n");
      return 2;
    }
    const auto report = perfbench::run_workload(o);
    print_report(o, report);
    for (const auto& f : report.failures) {
      std::fprintf(stderr, "roads_perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    return report.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roads_perfbench: error: %s\n", e.what());
    return 3;
  }
}
