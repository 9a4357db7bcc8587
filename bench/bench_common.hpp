// Shared helpers for the figure/table reproduction benches: device
// selection, size sweeps, and the paper-vs-measured summary block each
// bench prints (the numbers EXPERIMENTS.md records).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/profiler.hpp"
#include "sim/config.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bench {

using tilesim::DeviceConfig;
using tshmem_util::Cli;
using tshmem_util::Table;

/// Devices selected by --device (gx36|pro64|both; default both).
std::vector<const DeviceConfig*> devices_from_cli(const Cli& cli);

/// Power-of-two byte sizes in [lo, hi].
std::vector<std::size_t> pow2_sizes(std::size_t lo, std::size_t hi);

/// Tile counts used by the collective figures (2..36).
std::vector<int> collective_tile_counts();

/// One paper-anchor comparison line; `tolerance` is relative.
struct PaperCheck {
  std::string what;
  double measured;
  double paper;
  std::string unit;
};

/// Prints the "reproduction check" block: measured vs paper value and the
/// ratio. These rows are what EXPERIMENTS.md records per experiment.
void print_checks(const std::string& experiment,
                  const std::vector<PaperCheck>& checks);

/// Prints a table in text or CSV per the --csv flag.
void emit(const Cli& cli, const Table& table);

/// Telemetry flags every Runtime-based bench accepts:
///   --metrics-json <path>    metrics snapshot dump (schema tshmem.metrics.v1)
///   --trace-json <path>      Chrome trace-event / Perfetto JSON timeline
///   --profile-json <path>    critical-path profile (schema tshmem.profile.v1)
///   --profile-folded <path>  collapsed stacks for flamegraph.pl / speedscope
///   --timeseries-json <path> windowed virtual-time telemetry
///                            (schema tshmem.timeseries.v1)
///   --timeseries-window-ps <n>  window width (default 1e9 ps = 1 ms)
///   --blackbox-json <path>   flight-recorder dump (schema tshmem.blackbox.v1;
///                            also the Runtime's crash-dump path, so an Error
///                            mid-run leaves a post-mortem there)
///
/// Usage per Runtime (benches sweeping devices create several):
///   bench::Telemetry telemetry(cli);
///   ...
///   telemetry.configure(opts);          // before constructing the Runtime
///   tshmem::Runtime rt(*cfg, opts);
///   telemetry.attach(rt);               // right after construction
///   ... rt.run(...) as usual ...
///   telemetry.collect(rt);              // after the runtime's last run()
///   ...
///   telemetry.write();                  // once, at the end of main()
///
/// Raw-Device benches (no Runtime) use the Device overloads instead:
///   telemetry.attach(device);
///   ... workload ...
///   telemetry.collect(device, cfg->short_name);
///
/// When both --trace-json and a profile flag are given, the trace JSON also
/// carries the critical path's wait edges as Perfetto flow arrows.
///
/// Without the flags every call is a cheap no-op, and instrumentation is
/// host-side only, so measured virtual times are identical either way.
class Telemetry {
 public:
  explicit Telemetry(const Cli& cli);

  [[nodiscard]] bool metrics_requested() const noexcept {
    return !metrics_path_.empty();
  }
  [[nodiscard]] bool trace_requested() const noexcept {
    return !trace_path_.empty();
  }
  [[nodiscard]] bool profile_requested() const noexcept {
    return !profile_json_path_.empty() || !profile_folded_path_.empty();
  }
  [[nodiscard]] bool timeseries_requested() const noexcept {
    return !timeseries_path_.empty();
  }
  [[nodiscard]] bool blackbox_requested() const noexcept {
    return !blackbox_path_.empty();
  }

  /// Turns on RuntimeOptions::metrics / ::profile per the flags passed.
  void configure(tshmem::RuntimeOptions& opts) const;

  /// Attaches a trace log to the runtime's device when --trace-json was
  /// passed. (The profiler is owned by the Runtime itself, enabled via
  /// configure().)
  void attach(tshmem::Runtime& rt);

  /// Harvests the runtime's metrics snapshot, profile report, and timeline,
  /// detaching the trace log. Call once per Runtime, after its last run().
  void collect(tshmem::Runtime& rt);

  /// Raw-Device variant: attaches a trace log and/or a Telemetry-owned
  /// profiler directly to `device` (for benches with no Runtime).
  void attach(tilesim::Device& device);

  /// Harvests and detaches what attach(Device&) installed. `name` labels
  /// the trace track / profile run (use the device short name).
  void collect(tilesim::Device& device, const std::string& name);

  /// Writes any requested files and prints one line per file written.
  void write();

 private:
  /// Detaches the trace log from `device` and files its timeline as the
  /// next trace process, with `report`'s critical path as flow arrows.
  void collect_trace(tilesim::Device& device, const std::string& name,
                     const obs::ProfileReport* report);

  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_json_path_;
  std::string profile_folded_path_;
  std::string timeseries_path_;
  std::string blackbox_path_;
  tilesim::ps_t timeseries_window_ps_ = 0;
  std::vector<std::pair<std::string, obs::TimeSeriesReport>> timeseries_;
  std::string blackbox_doc_;  ///< last collected runtime's dump
  std::vector<obs::MetricsSnapshot> snapshots_;
  std::vector<obs::TraceTrack> tracks_;
  std::vector<obs::TraceFlow> flows_;
  std::vector<std::pair<std::string, obs::ProfileReport>> reports_;
  std::unique_ptr<obs::TraceLog> trace_log_;
  std::unique_ptr<obs::Profiler> device_profiler_;
  tshmem::Runtime* attached_ = nullptr;
  tilesim::Device* attached_device_ = nullptr;
  int next_pid_ = 0;
  std::uint64_t next_flow_id_ = 0;
};

}  // namespace bench
