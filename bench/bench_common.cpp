#include "bench_common.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bench {

std::vector<const DeviceConfig*> devices_from_cli(const Cli& cli) {
  return cli.get_as("device", "both", [](const std::string& which) {
    if (which == "both" || which == "all") return tilesim::all_devices();
    return std::vector<const DeviceConfig*>{&tilesim::device_by_name(which)};
  });
}

std::vector<std::size_t> pow2_sizes(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  for (std::size_t s = lo; s <= hi; s *= 2) out.push_back(s);
  return out;
}

std::vector<int> collective_tile_counts() { return {2, 4, 8, 16, 24, 32, 36}; }

void print_checks(const std::string& experiment,
                  const std::vector<PaperCheck>& checks) {
  std::cout << "\n--- reproduction check: " << experiment << " ---\n";
  Table t({"quantity", "measured", "paper", "unit", "ratio"});
  for (const auto& c : checks) {
    t.add_row({c.what, Table::num(c.measured, 2), Table::num(c.paper, 2),
               c.unit,
               c.paper != 0.0 ? Table::num(c.measured / c.paper, 2) : "-"});
  }
  t.print(std::cout);
}

void emit(const Cli& cli, const Table& table) {
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

// ===========================================================================
// Telemetry (--metrics-json / --trace-json / --profile-json /
//            --profile-folded)
// ===========================================================================

Telemetry::Telemetry(const Cli& cli)
    : metrics_path_(cli.get_string("metrics-json", "")),
      trace_path_(cli.get_string("trace-json", "")),
      profile_json_path_(cli.get_string("profile-json", "")),
      profile_folded_path_(cli.get_string("profile-folded", "")),
      timeseries_path_(cli.get_string("timeseries-json", "")),
      blackbox_path_(cli.get_string("blackbox-json", "")),
      timeseries_window_ps_(
          cli.get_int("timeseries-window-ps", 1'000'000'000)) {}

void Telemetry::configure(tshmem::RuntimeOptions& opts) const {
  if (metrics_requested()) opts.metrics = true;
  if (profile_requested()) opts.profile = true;
  if (timeseries_requested()) {
    opts.timeseries_window_ps = timeseries_window_ps_;
  }
  if (blackbox_requested()) {
    // Doubles as the Runtime's crash-dump path: a tshmem::Error or watchdog
    // timeout mid-run leaves its post-mortem at the same file the bench
    // would have written.
    opts.blackbox_path = blackbox_path_;
  }
}

void Telemetry::attach(tshmem::Runtime& rt) {
  if (!trace_requested()) return;
  if (attached_ != nullptr || attached_device_ != nullptr) {
    throw std::logic_error(
        "Telemetry::attach: collect() the previous runtime first");
  }
  trace_log_ = std::make_unique<obs::TraceLog>(rt.device());
  rt.device().attach_probe(trace_log_.get());
  attached_ = &rt;
}

void Telemetry::collect(tshmem::Runtime& rt) {
  if (metrics_requested()) snapshots_.push_back(rt.metrics());
  if (timeseries_requested() && rt.timeseries() != nullptr) {
    timeseries_.emplace_back(std::string(rt.config().short_name),
                             rt.timeseries()->report());
  }
  if (blackbox_requested()) {
    std::ostringstream os;
    if (rt.write_blackbox(os, "bench snapshot (end of run)", 0)) {
      blackbox_doc_ = os.str();
    }
  }
  const obs::Profiler* profiler =
      profile_requested() ? rt.profiler() : nullptr;
  std::vector<std::pair<std::string, obs::ProfileReport>> harvested;
  if (profiler != nullptr) {
    harvested.emplace_back(std::string(rt.config().short_name),
                           profiler->report());
  }
  if (attached_ == &rt && trace_log_ != nullptr) {
    collect_trace(rt.device(), rt.config().short_name,
                  harvested.empty() ? nullptr : &harvested.front().second);
    attached_ = nullptr;
  }
  for (auto& named : harvested) reports_.push_back(std::move(named));
}

void Telemetry::attach(tilesim::Device& device) {
  if (attached_ != nullptr || attached_device_ != nullptr) {
    throw std::logic_error(
        "Telemetry::attach: collect() the previous device first");
  }
  if (trace_requested()) {
    trace_log_ = std::make_unique<obs::TraceLog>(device);
    device.attach_probe(trace_log_.get());
  }
  if (profile_requested()) {
    device_profiler_ = std::make_unique<obs::Profiler>(device);
    device.attach_probe(device_profiler_.get());
  }
  attached_device_ = &device;
}

void Telemetry::collect(tilesim::Device& device, const std::string& name) {
  if (attached_device_ != &device) return;
  std::vector<std::pair<std::string, obs::ProfileReport>> harvested;
  if (device_profiler_ != nullptr) {
    harvested.emplace_back(name, device_profiler_->report());
    device.detach_probe(device_profiler_.get());
    device_profiler_.reset();
  }
  if (trace_log_ != nullptr) {
    collect_trace(device, name,
                  harvested.empty() ? nullptr : &harvested.front().second);
  }
  for (auto& named : harvested) reports_.push_back(std::move(named));
  attached_device_ = nullptr;
}

void Telemetry::collect_trace(tilesim::Device& device,
                              const std::string& name,
                              const obs::ProfileReport* report) {
  device.detach_probe(trace_log_.get());
  if (report != nullptr) {
    // Layer the critical path's wait edges onto this run's track as
    // Perfetto flow arrows (same pid as the track created below).
    std::vector<obs::TraceFlow> flows =
        obs::profile_flow_events(*report, next_pid_, next_flow_id_);
    next_flow_id_ += flows.size();
    flows_.insert(flows_.end(), flows.begin(), flows.end());
  }
  tracks_.push_back(trace_log_->track(next_pid_++, name));
  trace_log_.reset();
}

void Telemetry::write() {
  if (metrics_requested()) {
    std::ofstream os(metrics_path_);
    if (!os) {
      throw std::runtime_error("cannot write metrics JSON to " +
                               metrics_path_);
    }
    obs::write_metrics_json(os, snapshots_);
    std::cout << "wrote metrics JSON: " << metrics_path_ << "\n";
  }
  if (trace_requested()) {
    std::ofstream os(trace_path_);
    if (!os) {
      throw std::runtime_error("cannot write trace JSON to " + trace_path_);
    }
    obs::write_chrome_trace_json(os, tracks_, flows_);
    std::cout << "wrote trace JSON: " << trace_path_ << "\n";
  }
  if (!profile_json_path_.empty()) {
    std::ofstream os(profile_json_path_);
    if (!os) {
      throw std::runtime_error("cannot write profile JSON to " +
                               profile_json_path_);
    }
    if (reports_.size() == 1) {
      obs::write_profile_json(os, reports_.front().second);
    } else {
      // Several runtimes in one process (device sweeps): wrap each run's
      // report under its name so the file stays a single JSON document.
      os << "{\n  \"schema\": \"" << obs::kProfileSchema
         << "\",\n  \"runs\": [";
      bool first = true;
      for (const auto& [name, report] : reports_) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \"" << name
           << "\", \"profile\": ";
        obs::write_profile_json(os, report);
        os << "}";
        first = false;
      }
      os << "\n  ]\n}\n";
    }
    std::cout << "wrote profile JSON: " << profile_json_path_ << "\n";
  }
  if (timeseries_requested()) {
    std::ofstream os(timeseries_path_);
    if (!os) {
      throw std::runtime_error("cannot write timeseries JSON to " +
                               timeseries_path_);
    }
    if (timeseries_.size() == 1) {
      obs::write_timeseries_json(os, timeseries_.front().second);
    } else {
      // Several runtimes in one process (device sweeps): wrap each run.
      os << "{\n  \"schema\": \"" << obs::kTimeseriesSchema
         << "\",\n  \"runs\": [";
      bool first = true;
      for (const auto& [name, report] : timeseries_) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \"" << name
           << "\", \"timeseries\": ";
        obs::write_timeseries_json(os, report);
        os << "}";
        first = false;
      }
      os << "\n  ]\n}\n";
    }
    std::cout << "wrote timeseries JSON: " << timeseries_path_ << "\n";
  }
  if (blackbox_requested() && !blackbox_doc_.empty()) {
    std::ofstream os(blackbox_path_);
    if (!os) {
      throw std::runtime_error("cannot write blackbox JSON to " +
                               blackbox_path_);
    }
    os << blackbox_doc_;
    std::cout << "wrote blackbox JSON: " << blackbox_path_ << "\n";
  }
  if (!profile_folded_path_.empty()) {
    std::ofstream os(profile_folded_path_);
    if (!os) {
      throw std::runtime_error("cannot write folded profile to " +
                               profile_folded_path_);
    }
    for (const auto& [name, report] : reports_) {
      if (reports_.size() == 1) {
        obs::write_profile_folded(os, report);
      } else {
        // Prefix each stack with the run name to keep sweeps separable.
        std::ostringstream ss;
        obs::write_profile_folded(ss, report);
        std::istringstream is(ss.str());
        for (std::string line; std::getline(is, line);) {
          os << name << ";" << line << "\n";
        }
      }
    }
    std::cout << "wrote folded profile: " << profile_folded_path_ << "\n";
  }
}

}  // namespace bench
