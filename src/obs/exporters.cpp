#include "obs/exporters.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

namespace obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void write_snapshot(std::ostream& os, const MetricsSnapshot& snap,
                    const char* indent) {
  os << indent << "{\n";
  os << indent << "  \"device\": \"" << json_escape(snap.device) << "\",\n";
  os << indent << "  \"npes\": " << snap.npes << ",\n";

  os << indent << "  \"counters\": [";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(c.name) << "\", \"pe\": " << c.pe
       << ", \"value\": " << c.value << "}";
  }
  os << (snap.counters.empty() ? "" : "\n") << indent
     << (snap.counters.empty() ? "],\n" : "  ],\n");

  os << indent << "  \"gauges\": [";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(g.name) << "\", \"pe\": " << g.pe
       << ", \"value\": " << g.value << "}";
  }
  os << (snap.gauges.empty() ? "" : "\n") << indent
     << (snap.gauges.empty() ? "],\n" : "  ],\n");

  os << indent << "  \"histograms\": [";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(h.name) << "\", \"pe\": " << h.pe
       << ", \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"log2\": " << h.buckets[b].bucket
         << ", \"count\": " << h.buckets[b].count << "}";
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "" : "\n") << indent
     << (snap.histograms.empty() ? "]\n" : "  ]\n");
  os << indent << "}";
}

}  // namespace

void write_metrics_json(std::ostream& os,
                        const std::vector<MetricsSnapshot>& runs) {
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_snapshot(os, runs[i], "    ");
  }
  os << (runs.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  write_metrics_json(os, std::vector<MetricsSnapshot>{snapshot});
}

namespace {

/// Virtual picoseconds -> trace microseconds (fractional, ns resolution).
std::string trace_us(tilesim::ps_t ps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ps) / 1e6);
  return buf;
}

}  // namespace

void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks,
                             const std::vector<TraceFlow>& flows) {
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  for (const TraceTrack& track : tracks) {
    // Metadata events name the process (device) and every track in use.
    os << (first ? "\n" : ",\n")
       << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << track.pid << ", \"args\": {\"name\": \""
       << json_escape(track.process_name) << "\"}}";
    first = false;
    std::set<int> tids;
    for (const TraceEvent& e : track.events) tids.insert(e.tid);
    for (const TraceFlow& f : flows) {
      if (f.pid != track.pid) continue;
      tids.insert(f.src_tile);
      tids.insert(f.dst_tile);
    }
    for (const int tid : tids) {
      const bool dma = track.tiles > 0 && tid >= track.tiles;
      os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
         << track.pid << ", \"tid\": " << tid
         << ", \"args\": {\"name\": \"tile " << (dma ? tid - track.tiles : tid)
         << (dma ? " dma" : "") << "\"}}";
    }
    for (const TraceEvent& e : track.events) {
      os << ",\n    {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
         << e.cat << "\", \"ph\": \"X\", \"ts\": " << trace_us(e.begin_ps)
         << ", \"dur\": " << trace_us(e.end_ps - e.begin_ps)
         << ", \"pid\": " << track.pid << ", \"tid\": " << e.tid << "}";
    }
  }
  for (const TraceFlow& f : flows) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(f.name) << "\", \"cat\": \"wait_edge\", \"ph\": \"s\""
       << ", \"id\": " << f.id << ", \"ts\": " << trace_us(f.src_ps)
       << ", \"pid\": " << f.pid << ", \"tid\": " << f.src_tile << "}";
    first = false;
    os << ",\n    {\"name\": \"" << json_escape(f.name)
       << "\", \"cat\": \"wait_edge\", \"ph\": \"f\", \"bp\": \"e\""
       << ", \"id\": " << f.id << ", \"ts\": " << trace_us(f.dst_ps)
       << ", \"pid\": " << f.pid << ", \"tid\": " << f.dst_tile << "}";
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

// ===========================================================================
// TraceLog
// ===========================================================================

TraceLog::TraceLog(const tilesim::Device& device) : device_(&device) {
  tiles_.reserve(static_cast<std::size_t>(device.tile_count()));
  for (int i = 0; i < device.tile_count(); ++i) {
    tiles_.push_back(std::make_unique<PerTile>());
  }
}

void TraceLog::on_span_begin(int tile, tilesim::ProbeKind kind,
                             const char* site, tilesim::ps_t now) {
  PerTile& pt = *tiles_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(pt.mu);
  pt.stack.push_back(
      {tilesim::prof_phase_name(tilesim::phase_of(kind)), site, now});
}

void TraceLog::close_span(int t, PerTile& pt, tilesim::ps_t end_ps) {
  const OpenSpan s = pt.stack.back();
  pt.stack.pop_back();
  pt.events.push_back(
      {t, s.cat, s.site, pt.base_ps + s.begin_ps, pt.base_ps + end_ps});
}

void TraceLog::on_span_end(int tile, tilesim::ps_t now) {
  PerTile& pt = *tiles_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(pt.mu);
  if (pt.stack.empty()) return;  // unbalanced end; nothing to close
  close_span(tile, pt, now);
}

void TraceLog::on_wait_edge(int tile, int /*src_tile*/,
                            tilesim::ProbeKind /*kind*/, const char* site,
                            tilesim::ps_t from_ps, tilesim::ps_t to_ps) {
  PerTile& pt = *tiles_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(pt.mu);
  pt.events.push_back(
      {tile, "wait_edge", site, pt.base_ps + from_ps, pt.base_ps + to_ps});
}

void TraceLog::on_event(int tile, const tilesim::ProbeEvent& e) {
  if (e.kind != tilesim::ProbeKind::kDmaIssue) return;
  PerTile& pt = *tiles_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(pt.mu);
  pt.events.push_back({device_->tile_count() + tile, "nbi", e.site,
                       pt.base_ps + e.start_ps, pt.base_ps + e.complete_ps});
}

void TraceLog::on_clock_reset() {
  // Single-threaded safe point (the Probe contract): every tile's clock
  // still holds the finished epoch's final value, and every span and wait
  // ended at or before it.
  const int n = static_cast<int>(tiles_.size());
  tilesim::ps_t extent = 0;
  for (int t = 0; t < n; ++t) {
    extent = std::max(extent, device_->tile(t).clock().now());
  }
  for (int t = 0; t < n; ++t) {
    PerTile& pt = *tiles_[static_cast<std::size_t>(t)];
    std::scoped_lock lk(pt.mu);
    // Spans open across the reset end with the epoch and restart at zero
    // in the next one, as the profiler counts them.
    std::vector<OpenSpan> reopen = pt.stack;
    while (!pt.stack.empty()) {
      close_span(t, pt, device_->tile(t).clock().now());
    }
    for (OpenSpan& s : reopen) s.begin_ps = 0;
    pt.stack = std::move(reopen);
    pt.base_ps += extent;
  }
}

TraceTrack TraceLog::track(int pid, std::string process_name) const {
  TraceTrack out{pid, std::move(process_name), device_->tile_count(), {}};
  for (int t = 0; t < static_cast<int>(tiles_.size()); ++t) {
    const PerTile& pt = *tiles_[static_cast<std::size_t>(t)];
    std::scoped_lock lk(pt.mu);
    out.events.insert(out.events.end(), pt.events.begin(), pt.events.end());
    const tilesim::ps_t fin = device_->tile(t).clock().now();
    for (auto s = pt.stack.rbegin(); s != pt.stack.rend(); ++s) {
      out.events.push_back(
          {t, s->cat, s->site, pt.base_ps + s->begin_ps, pt.base_ps + fin});
    }
  }
  // Enclosing spans first among those starting together, so viewers nest
  // them; stable, so the order stays deterministic.
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.begin_ps != b.begin_ps) {
                       return a.begin_ps < b.begin_ps;
                     }
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.end_ps > b.end_ps;
                   });
  return out;
}

}  // namespace obs
