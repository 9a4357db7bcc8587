// perfbench: runs one workload of the host-cost benchmark and prints
// one JSON object (its raw outcome) as the last line of stdout. The Python
// front end, perfbench/run.py, builds this binary, checks the digests it
// reports against perfbench/references.json and prints the final result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--record]        run each catalogue entry once
//   perfbench --list-metrics 0|1
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_outcome(const perfbench::Args& a, const perfbench::Outcome& o,
                   int nproc) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
     << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << nproc
     << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"catalogue\": " << quoted(o.catalogue) << ", \"npes\": [";
  for (std::size_t i = 0; i < o.npes.size(); ++i) {
    os << (i ? ", " : "") << o.npes[i];
  }
  os << "], \"stream_units\": " << o.stream_units
     << ", \"stream_digest\": " << quoted(hex(o.stream_digest))
     << ", \"digests\": {";
  bool first = true;
  for (const auto& [entry, by_digest] : o.digests) {
    os << (first ? "" : ", ") << quoted(std::to_string(entry)) << ": {";
    first = false;
    bool inner = true;
    for (const auto& [digest, ops] : by_digest) {
      os << (inner ? "" : ", ") << quoted(hex(digest)) << ": " << ops;
      inner = false;
    }
    os << "}";
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : o.metrics) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << m.value
       << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 [--record]\n       perfbench"
               " --list-metrics 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Environment overrides of RuntimeOptions would silently change what a
  // workload measures; the benchmark fixes every option itself.
  for (const char* var :
       {"TSHMEM_METRICS", "TSHMEM_PROFILE", "TSHMEM_DEBUG",
        "TSHMEM_WATCHDOG_MS", "TSHMEM_FAULT_PLAN", "TSHMEM_RACECHECK",
        "TSHMEM_RACECHECK_GRANULE", "TSHMEM_FLIGHTREC",
        "TSHMEM_TIMESERIES_WINDOW_PS", "TSHMEM_BLACKBOX"}) {
    unsetenv(var);
  }
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = value() == "1";
      } else if (arg == "--record") {
        a.record = true;
      } else if (arg == "--list-metrics") {
        for (const auto& [name, unit] :
             perfbench::metric_catalogue(value() == "1")) {
          std::cout << name << " " << unit << "\n";
        }
        return 0;
      } else {
        return usage_error("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage_error(e.what());
    }
  }
  if (!have_workload) return usage_error("--workload is required");
  if (a.seconds <= 0) return usage_error("--seconds must be positive");

  const int nproc = usable_cpus();
  try {
    for (int npes : perfbench::workload_npes(a.workload)) {
      if (npes > nproc) {
        // One host thread per PE: more PEs than cores measures the host
        // scheduler, not the library.
        std::cerr << "perfbench: " << a.workload << " runs " << npes
                  << " PEs but only " << nproc << " CPUs are usable\n";
        return 3;
      }
    }
    const perfbench::Outcome o = perfbench::run_workload(a);
    print_outcome(a, o, nproc);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
