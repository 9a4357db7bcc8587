#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "obs/quantiles.hpp"

namespace obs {

namespace {

/// The element of `v` (ascending by key()) whose key is `fresh`'s,
/// inserted in order as `fresh` when missing. PEs reach windows in nearly
/// ascending order, so the back is checked first.
template <typename T>
T& find_or_insert(std::vector<T>& v, const T& fresh) {
  const auto key = fresh.key();
  if (v.empty() || v.back().key() < key) return v.emplace_back(fresh);
  if (v.back().key() == key) return v.back();
  auto it = std::lower_bound(
      v.begin(), v.end(), key,
      [](const T& e, const decltype(key)& k) { return e.key() < k; });
  if (it->key() != key) it = v.insert(it, fresh);
  return *it;
}

}  // namespace

TimeSeries::TimeSeries(tilesim::ps_t window_ps, int npes)
    : window_ps_(window_ps), cells_(static_cast<std::size_t>(npes)) {
  if (window_ps <= 0) {
    throw std::invalid_argument("TimeSeries window_ps must be positive");
  }
}

TimeSeries::TimeSeries(const tilesim::Device& device, tilesim::ps_t window_ps)
    : TimeSeries(window_ps, device.tile_count()) {
  device_ = &device;
}

std::uint64_t TimeSeries::window_of(tilesim::ps_t vt) const {
  return (epoch_base_ps_.load(std::memory_order_relaxed) + vt) / window_ps_;
}

void TimeSeries::add_sample(Series& s, std::uint64_t window,
                            std::uint64_t value) {
  Bucket& b = find_or_insert(
      s.buckets,
      Bucket{window, Log2Histogram::bucket_of(value), 0, 0, value, value});
  b.count += 1;
  b.sum += value;
  b.min = std::min(b.min, value);
  b.max = std::max(b.max, value);
}

void TimeSeries::series_add(const std::string& name, tilesim::ps_t vt,
                            std::uint64_t delta) {
  std::scoped_lock lk(mu_);
  find_or_insert(series_[name].cells, Cell{window_of(vt)}).count += delta;
}

void TimeSeries::series_sample(const std::string& name, tilesim::ps_t vt,
                               std::uint64_t value) {
  std::scoped_lock lk(mu_);
  Series& s = series_[name];
  const std::uint64_t w = window_of(vt);
  find_or_insert(s.cells, Cell{w}).count += 1;
  add_sample(s, w, value);
}

void TimeSeries::flush(EventCell& c) const {
  if (!c.dirty) return;
  for (std::size_t k = 0; k < c.counts.size(); ++k) {
    if (c.counts[k] == 0) continue;
    const auto kind = static_cast<tilesim::ProbeKind>(k);
    Series& s =
        series_[std::string("event.") + tilesim::probe_kind_name(kind)];
    find_or_insert(s.cells, Cell{c.window}).count += c.counts[k];
    c.counts[k] = 0;
  }
  if (!c.barrier_ps.empty()) {
    Series& s = series_["shmem.barrier.ps"];
    find_or_insert(s.cells, Cell{c.window}).count += c.barrier_ps.size();
    for (const std::uint64_t v : c.barrier_ps) add_sample(s, c.window, v);
    c.barrier_ps.clear();
  }
  c.dirty = false;
}

void TimeSeries::on_event(int pe, const tilesim::ProbeEvent& e) {
  if (pe < 0 || pe >= static_cast<int>(cells_.size())) return;
  EventCell& c = cells_[static_cast<std::size_t>(pe)];
  const std::uint64_t w = window_of(e.vt);
  if (c.dirty && c.window != w) {
    std::scoped_lock lk(mu_);
    flush(c);
  }
  c.window = w;
  c.counts[static_cast<std::size_t>(e.kind)] += 1;
  if (e.kind == tilesim::ProbeKind::kBarrier) c.barrier_ps.push_back(e.bytes);
  c.dirty = true;
}

void TimeSeries::on_clock_reset() {
  if (device_ == nullptr) return;
  // Single-threaded safe point (the Probe contract): every tile's clock
  // is final, so the finished epoch's extent is their max.
  tilesim::ps_t extent = 0;
  for (int i = 0; i < device_->tile_count(); ++i) {
    extent = std::max(extent, device_->tile(i).clock().now());
  }
  fold_epoch(extent);
}

void TimeSeries::fold_epoch(tilesim::ps_t extent) {
  epoch_base_ps_.fetch_add(extent, std::memory_order_relaxed);
}

tilesim::ps_t TimeSeries::epoch_base_ps() const {
  return epoch_base_ps_.load(std::memory_order_relaxed);
}

TimeSeriesReport TimeSeries::report() const {
  std::scoped_lock lk(mu_);
  for (EventCell& c : cells_) flush(c);
  TimeSeriesReport rep;
  rep.window_ps = window_ps_;
  rep.series.reserve(series_.size());
  HistogramSample samples;
  for (const auto& [name, s] : series_) {
    SeriesTimeline tl;
    tl.name = name;
    tl.windows.reserve(s.cells.size());
    auto b = s.buckets.begin();
    for (const Cell& cell : s.cells) {
      SeriesWindow w;
      w.index = cell.window;
      w.start_ps = static_cast<tilesim::ps_t>(
          cell.window * static_cast<std::uint64_t>(window_ps_));
      w.count = cell.count;
      samples.count = 0;
      samples.sum = 0;
      samples.max = 0;
      samples.buckets.clear();
      for (; b != s.buckets.end() && b->window == cell.window; ++b) {
        samples.min =
            samples.count == 0 ? b->min : std::min(samples.min, b->min);
        samples.max = std::max(samples.max, b->max);
        samples.count += b->count;
        samples.sum += b->sum;
        samples.buckets.push_back({b->bucket, b->count});
      }
      if (samples.count > 0) {
        w.has_samples = true;
        w.sum = samples.sum;
        w.min = samples.min;
        w.max = samples.max;
        const LatencyQuantiles q = latency_quantiles(samples);
        w.p50 = q.p50;
        w.p99 = q.p99;
        w.p999 = q.p999;
      }
      tl.total_count += cell.count;
      tl.windows.push_back(w);
    }
    rep.series.push_back(std::move(tl));
  }
  return rep;
}

void write_timeseries_json(std::ostream& os, const TimeSeriesReport& report) {
  os << "{\"schema\": \"" << kTimeseriesSchema << "\",\n";
  os << " \"window_ps\": " << report.window_ps << ",\n";
  os << " \"series\": [";
  bool first_series = true;
  for (const SeriesTimeline& tl : report.series) {
    if (!first_series) os << ",";
    first_series = false;
    os << "\n  {\"name\": \"" << json_escape(tl.name) << "\", "
       << "\"total_count\": " << tl.total_count << ", \"windows\": [";
    bool first_window = true;
    for (const SeriesWindow& w : tl.windows) {
      if (!first_window) os << ",";
      first_window = false;
      os << "\n    {\"index\": " << w.index << ", \"start_ps\": "
         << w.start_ps << ", \"count\": " << w.count;
      if (w.has_samples) {
        os << ", \"sum\": " << w.sum << ", \"min\": " << w.min
           << ", \"max\": " << w.max << ", \"p50\": " << w.p50
           << ", \"p99\": " << w.p99 << ", \"p999\": " << w.p999;
      }
      os << "}";
    }
    os << "]}";
  }
  os << "\n ]}\n";
}

}  // namespace obs
