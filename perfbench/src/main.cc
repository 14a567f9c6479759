// The repository benchmark program. One invocation runs one workload:
//
//   perfbench --workload <fig-exact|serve-zipf|frontier-wide> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// and prints, as its last line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
// traced). See README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig-exact|serve-zipf|frontier-wide> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report(options.trace);
  try {
    if (options.workload == "fig-exact") {
      perfbench::RunFigExact(options, report);
    } else if (options.workload == "serve-zipf") {
      perfbench::RunServeZipf(options, report);
    } else if (options.workload == "frontier-wide") {
      perfbench::RunFrontierWide(options, report);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    // A reference computation refused its input: the run cannot be judged.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Print();
  return 0;
}
