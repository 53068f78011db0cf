// perfbench runner: runs one workload for a fixed time and prints one JSON
// document (metrics, operation counts, output-check failures, provenance)
// as its last line.  perfbench/run.py builds and invokes it; see
// perfbench/README.md.
//
//   perfbench_runner --workload repro|aging_fleet|auth_verify [--seed N]
//                    [--seconds S] [--trace 0|1] [--tiny] [--inject CHECK]
//                    [--out-dir DIR]

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <linux/perf_event.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "bench.hpp"
#include "circuit/delay_kernel.hpp"
#include "telemetry/manifest.hpp"

namespace {

using aropuf::JsonValue;
using perfbench::Options;
using perfbench::Result;

/// The program's own env-gated telemetry and tuning knobs; every run clears
/// them so an exported variable cannot change what is measured.
constexpr const char* kClearedEnv[] = {
    "AROPUF_TRACE", "AROPUF_PROF",    "AROPUF_PROF_RESOURCE", "AROPUF_PROF_INTERVAL_MS",
    "AROPUF_MANIFEST", "AROPUF_LOG", "AROPUF_LOG_FORMAT",   "ARO_CSV_DIR",
    "AROPUF_THREADS", "AROPUF_KERNEL",
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "repro|aging_fleet|auth_verify [--seed N] [--seconds S] [--trace 0|1] [--tiny] "
               "[--inject CHECK] [--out-dir DIR]\n",
               msg);
  return 2;
}

int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Whether a hardware cycle counter can be opened for this process.
JsonValue pmu_probe() {
  JsonValue::Object out;
  std::ifstream paranoid("/proc/sys/kernel/perf_event_paranoid");
  int level = 0;
  out["perf_event_paranoid"] = (paranoid >> level) ? JsonValue(level) : JsonValue("unknown");
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  out["pmu_available"] = JsonValue(fd >= 0);
  if (fd >= 0) {
    close(static_cast<int>(fd));
  } else {
    out["pmu_error"] = JsonValue(std::strerror(errno));
  }
  return JsonValue(std::move(out));
}

/// Aggregate CPU ticks from /proc/stat: {steal, total} (zeros if unreadable).
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double ticks = 0.0;
  for (int field = 0; field < 10 && (stat >> ticks); ++field) {
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

/// Cache sizes the workloads' working sets are compared with (0 = unknown).
JsonValue cache_sizes(int cpus) {
  JsonValue::Object out;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  out["l2_bytes_total"] = JsonValue(static_cast<double>(l2 > 0 ? l2 : 0) * cpus);
  out["l3_bytes"] = JsonValue(static_cast<double>(l3 > 0 ? l3 : 0));
  return JsonValue(std::move(out));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  JsonValue::Array cleared;
  for (const char* name : kClearedEnv) {
    if (std::getenv(name) != nullptr) {
      cleared.emplace_back(name);
      unsetenv(name);
    }
  }

  Options opt;
  opt.threads = nproc();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage(("missing value for " + arg).c_str()));
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--inject") {
        opt.inject = value();
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  void (*workload)(const Options&, Result&) = nullptr;
  if (opt.workload == "repro") {
    workload = perfbench::run_repro;
  } else if (opt.workload == "aging_fleet") {
    workload = perfbench::run_aging_fleet;
  } else if (opt.workload == "auth_verify") {
    workload = perfbench::run_auth_verify;
  } else {
    return usage("unknown workload");
  }

  Result result;
  const JsonValue manifest = aropuf::telemetry::build_manifest("perfbench", JsonValue());
  std::string build_type = manifest.as_object().at("build").as_object().at("type").as_string();
  if (opt.inject == "build.type") build_type = "Debug";
  JsonValue::Object provenance;
  provenance["library_git_sha"] = manifest.as_object().at("git_sha");
  provenance["build_type"] = JsonValue(build_type);
  provenance["compiler"] = JsonValue(std::string(__VERSION__));
  provenance["simd_compiled"] = manifest.as_object().at("build").as_object().at("simd_compiled");
  provenance["delay_backend"] = JsonValue(aropuf::to_string(aropuf::delay_backend()));
  provenance["nproc"] = JsonValue(nproc());
  provenance["threads"] = JsonValue(opt.threads);
  provenance["seed"] = JsonValue(opt.seed);
  provenance["seconds"] = JsonValue(opt.seconds);
  provenance["trace"] = JsonValue(opt.trace);
  provenance["tiny"] = JsonValue(opt.tiny);
  provenance["cleared_env"] = JsonValue(std::move(cleared));
  provenance["pmu"] = pmu_probe();
  provenance["caches"] = cache_sizes(nproc());
  if (!opt.inject.empty()) provenance["inject"] = JsonValue(opt.inject);
  result.info("provenance", JsonValue(std::move(provenance)));

  // A non-Release build is a failed run, never a timing.
  if (result.check(build_type == "Release", "library build type is '" + build_type +
                                                "', not Release; nothing was timed")) {
    const auto ticks0 = cpu_ticks();
    try {
      workload(opt, result);
    } catch (const std::exception& e) {
      result.check(false, std::string("workload threw: ") + e.what());
    }
    // Share of the machine's CPU time the hypervisor took while the workload
    // ran: timings of a run with a high share are slower for reasons
    // outside the program.
    const auto ticks1 = cpu_ticks();
    const double total = ticks1.second - ticks0.second;
    result.info("host_steal_frac",
                JsonValue(total > 0.0 ? (ticks1.first - ticks0.first) / total : 0.0));
    result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    if (opt.trace) {
      const std::string path = opt.out_dir + "/trace_" + opt.workload + ".json";
      if (perfbench::write_chrome_trace(path)) result.info("trace_file", JsonValue(path));
    }
  }
  std::cout << result.to_json().dump() << std::endl;
  return 0;
}
