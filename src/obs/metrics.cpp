#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

namespace obs {

// ===========================================================================
// Log2Histogram
// ===========================================================================

int Log2Histogram::bucket_of(std::uint64_t sample) noexcept {
  return std::bit_width(sample);  // 0 for 0, else floor(log2(v)) + 1
}

std::uint64_t Log2Histogram::bucket_lower(int bucket) noexcept {
  if (bucket <= 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

std::uint64_t Log2Histogram::bucket_upper(int bucket) noexcept {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

void Log2Histogram::record(std::uint64_t sample) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(bucket_of(sample))].fetch_add(
      1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (sample < cur &&
         !min_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (sample > cur &&
         !max_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
}

void Log2Histogram::owner_record(std::uint64_t sample) noexcept {
  using tshmem_util::owner_add;
  owner_add(count_, std::uint64_t{1});
  owner_add(sum_, sample);
  owner_add(buckets_[static_cast<std::size_t>(bucket_of(sample))],
            std::uint64_t{1});
  if (sample < min_.load(std::memory_order_relaxed)) {
    min_.store(sample, std::memory_order_relaxed);
  }
  if (sample > max_.load(std::memory_order_relaxed)) {
    max_.store(sample, std::memory_order_relaxed);
  }
}

// ===========================================================================
// MetricsRegistry
// ===========================================================================

struct MetricsRegistry::Shard {
  mutable std::mutex mu;
  // Ordered map so per-shard iteration is already sorted; the final
  // snapshot merge only re-sorts across shards.
  std::map<std::pair<std::string, int>, Cell> cells;
};

namespace {
std::size_t shard_index(std::string_view name, int pe, std::size_t shards) {
  const std::size_t h =
      std::hash<std::string_view>{}(name) * 31 +
      std::hash<int>{}(pe);
  return h % shards;
}
}  // namespace

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::MetricsRegistry(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("MetricsRegistry needs >= 1 shard");
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MetricsRegistry::Cell& MetricsRegistry::cell_for(std::string_view name, int pe,
                                                 Kind kind) {
  Shard& shard = *shards_[shard_index(name, pe, shards_.size())];
  std::scoped_lock lk(shard.mu);
  auto [it, inserted] =
      shard.cells.try_emplace({std::string(name), pe});
  Cell& cell = it->second;
  if (inserted) {
    cell.kind = kind;
    switch (kind) {
      case Kind::kCounter: cell.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: cell.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        cell.histogram = std::make_unique<Log2Histogram>();
        break;
    }
  } else if (cell.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' re-registered with a different kind");
  }
  return cell;
}

Counter& MetricsRegistry::counter(std::string_view name, int pe) {
  return *cell_for(name, pe, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, int pe) {
  return *cell_for(name, pe, Kind::kGauge).gauge;
}

Log2Histogram& MetricsRegistry::histogram(std::string_view name, int pe) {
  return *cell_for(name, pe, Kind::kHistogram).histogram;
}

std::size_t MetricsRegistry::metric_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lk(shard->mu);
    n += shard->cells.size();
  }
  return n;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string device, int npes) const {
  MetricsSnapshot snap;
  snap.device = std::move(device);
  snap.npes = npes;
  for (const auto& shard : shards_) {
    std::scoped_lock lk(shard->mu);
    for (const auto& [key, cell] : shard->cells) {
      switch (cell.kind) {
        case Kind::kCounter:
          snap.counters.push_back(
              {key.first, key.second, cell.counter->value()});
          break;
        case Kind::kGauge:
          snap.gauges.push_back({key.first, key.second, cell.gauge->value()});
          break;
        case Kind::kHistogram: {
          const Log2Histogram& h = *cell.histogram;
          HistogramSample s;
          s.name = key.first;
          s.pe = key.second;
          s.count = h.count();
          s.sum = h.sum();
          s.min = s.count == 0 ? 0 : h.min();
          s.max = h.max();
          for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
            if (const std::uint64_t c = h.bucket_count(b); c != 0) {
              s.buckets.push_back({b, c});
            }
          }
          snap.histograms.push_back(std::move(s));
          break;
        }
      }
    }
  }
  const auto by_name_pe = [](const auto& a, const auto& b) {
    return a.name != b.name ? a.name < b.name : a.pe < b.pe;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name_pe);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name_pe);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name_pe);
  return snap;
}

}  // namespace obs
