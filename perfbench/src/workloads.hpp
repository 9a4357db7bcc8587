// The benchmark's four workloads (README.md in this directory).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run every catalogue entry exactly once and report its virtual-time
  /// digest (how references.json is made).
  bool record = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  ///< operations issued (unit per workload)
  std::uint64_t failed = 0;     ///< operations that threw or failed a check
  /// Reference table the digests below are checked against.
  std::string catalogue;
  /// Virtual-time digest observed per catalogue entry, with the number of
  /// operations that carried it: entry -> digest -> operations.
  std::map<int, std::map<std::uint64_t, std::uint64_t>> digests;
  /// Digest of the first `stream_units` (entry, digest) pairs in run order;
  /// stream_units is 0 when the run was shorter than that.
  int stream_units = 0;
  std::uint64_t stream_digest = 0;
  std::vector<int> npes;  ///< PE counts the workload's jobs run at
};

/// PE counts a workload runs jobs at (checked against nproc before it runs).
std::vector<int> workload_npes(const std::string& workload);

/// Every metric a run reports, (name, unit), by mode (trace or not).
const std::vector<std::pair<std::string, std::string>>& metric_catalogue(
    bool trace);

Outcome run_workload(const Args& args);

}  // namespace perfbench
