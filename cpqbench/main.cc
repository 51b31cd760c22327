// cpqbench: runs one workload for a fixed time and prints its metrics.
//
//   cpqbench --workload <mem-mix|file-b0|paper-lru|mirror-tail>
//            --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every check passed, 1 when a query failed or a
// check did not hold (the JSON still prints), 2 on bad arguments or a
// failed set-up (no JSON).

#include <malloc.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace {

using cpqbench::Args;
using cpqbench::MetricDef;
using cpqbench::Report;

int Usage(const char* why) {
  std::fprintf(stderr,
               "cpqbench: %s\n"
               "usage: cpqbench --workload <mem-mix|file-b0|paper-lru|"
               "mirror-tail> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0.0)) end = nullptr;
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = v == "1";
      continue;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (flag != "--workload" && (end == nullptr || *end != '\0')) {
      *error = "bad value for " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void PrintTable(const char* title, const std::vector<MetricDef>& defs,
                const Report& report) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = report.values.find(d.name);
    if (it == report.values.end()) {
      std::printf("  %-32s n/a\n", d.name);
    } else {
      std::printf("  %-32s %.6g %s (samples %llu)\n", d.name, it->second.value,
                  d.unit, static_cast<unsigned long long>(it->second.samples));
    }
  }
}

void PrintJson(const std::vector<MetricDef>& defs, const Report& report,
               bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed +
                                              report.mismatches));
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = report.values.find(defs[i].name);
    double v = it == report.values.end() ? 0.0 : it->second.value;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  Report (*run)(const Args&) = nullptr;
  if (args.workload == "mem-mix") run = cpqbench::RunMemMix;
  if (args.workload == "file-b0") run = cpqbench::RunFileB0;
  if (args.workload == "paper-lru") run = cpqbench::RunPaperLru;
  if (args.workload == "mirror-tail") run = cpqbench::RunMirrorTail;
  if (run == nullptr) return Usage("unknown workload");
  // The simulated devices sleep for 100 us per read. With the default 50 us
  // timer slack each of those sleeps would overrun by an amount the kernel
  // picks; every thread inherits this 1 ns slack instead.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // A fixed mmap threshold turns off glibc's adaptive one, which after the
  // first large free keeps blocks of up to 32 MiB in the heaps; which
  // client's arena then held them made mem-mix's peak RSS swing between
  // 50 and 60 MiB, against about 27 MiB with the threshold fixed.
  ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  Report report;
  try {
    report = run(args);
  } catch (const cpqbench::SetupError& e) {
    std::fprintf(stderr, "cpqbench: set-up failed: %s\n", e.what());
    return 2;
  }
  const bool correct = report.failed == 0 && report.mismatches == 0;
  std::printf("# cpqbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (args.trace) {
    PrintTable("per-layer metrics:", cpqbench::kPerLayerMetrics, report);
  } else {
    PrintTable("end-to-end metrics:", cpqbench::kEndToEndMetrics, report);
    PrintTable("end-to-end metrics that can be 0 (per-layer in "
               "BENCHMARK.json):",
               cpqbench::kZeroableEndToEndMetrics, report);
  }
  std::printf("correct=%s attempted=%llu failed=%llu mismatches=%llu\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.mismatches));
  PrintJson(args.trace ? cpqbench::kPerLayerMetrics
                       : cpqbench::kEndToEndMetrics,
            report, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
