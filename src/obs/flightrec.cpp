#include "obs/flightrec.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/exporters.hpp"

namespace obs {

FlightRecorder::FlightRecorder(int npes, std::size_t capacity)
    : npes_(npes), capacity_(capacity) {
  if (npes < 1) throw std::invalid_argument("FlightRecorder: npes < 1");
  if (capacity < 1) {
    throw std::invalid_argument("FlightRecorder: capacity < 1");
  }
  rings_.reserve(static_cast<std::size_t>(npes));
  for (int i = 0; i < npes; ++i) {
    rings_.push_back(std::make_unique<PeRing>());
    rings_.back()->ring.resize(capacity);
  }
}

FlightRecorder::FlightRecorder(const tilesim::Device& device,
                               std::size_t capacity)
    : FlightRecorder(device.tile_count(), capacity) {
  device_ = &device;
}

void FlightRecorder::on_clock_reset() {
  if (device_ == nullptr) return;
  // Single-threaded safe point (the Probe contract): every tile's
  // clock is final, so the finished epoch's extent is their max.
  tilesim::ps_t extent = 0;
  for (int i = 0; i < device_->tile_count(); ++i) {
    extent = std::max(extent, device_->tile(i).clock().now());
  }
  epoch_base_ps_.fetch_add(extent, std::memory_order_relaxed);
}

void FlightRecorder::on_event(int pe, const tilesim::ProbeEvent& e) {
  if (pe < 0 || pe >= npes_) return;  // unattributed (standalone engines)
  const tilesim::ps_t folded =
      epoch_base_ps_.load(std::memory_order_relaxed) + e.vt;
  PeRing& r = *rings_[static_cast<std::size_t>(pe)];
  // Single writer (this PE's thread): plain slot stores, published by the
  // release store of next_seq below.
  const std::uint64_t seq = r.next_seq.load(std::memory_order_relaxed);
  FrEvent& slot = r.ring[static_cast<std::size_t>(seq % capacity_)];
  slot.vt = folded;
  slot.seq = seq;
  slot.pe = pe;
  slot.kind = e.kind;
  slot.site = e.site;
  slot.peer = e.peer;
  slot.bytes = e.bytes;
  slot.errc = static_cast<std::int32_t>(e.errc);
  r.next_seq.store(seq + 1, std::memory_order_release);
}

tilesim::ps_t FlightRecorder::epoch_base_ps() const {
  return epoch_base_ps_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::total_recorded(int pe) const {
  if (pe < 0 || pe >= npes_) return 0;
  const PeRing& r = *rings_[static_cast<std::size_t>(pe)];
  return r.next_seq.load(std::memory_order_acquire);
}

std::vector<FrEvent> FlightRecorder::snapshot(int pe) const {
  if (pe < 0 || pe >= npes_) {
    throw std::out_of_range("FlightRecorder::snapshot: pe out of range");
  }
  const PeRing& r = *rings_[static_cast<std::size_t>(pe)];
  // Lock-free read racing a lock-free writer: the acquire load makes
  // every slot below `n` fully visible; slots the writer overwrote while
  // we copied are exactly those whose seq fell below the post-copy window
  // start, so they are dropped. In practice dumps race a writer only when
  // a blackbox is taken while peer PEs still run; post-run snapshots see
  // a quiescent ring and lose nothing.
  std::vector<FrEvent> out;
  const std::uint64_t n = r.next_seq.load(std::memory_order_acquire);
  const std::uint64_t first = n > capacity_ ? n - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(n - first));
  for (std::uint64_t s = first; s < n; ++s) {
    out.push_back(r.ring[static_cast<std::size_t>(s % capacity_)]);
  }
  const std::uint64_t n2 = r.next_seq.load(std::memory_order_acquire);
  const std::uint64_t safe_first = n2 > capacity_ ? n2 - capacity_ : 0;
  if (safe_first > first) {
    const std::uint64_t drop = std::min(safe_first - first,
                                        static_cast<std::uint64_t>(out.size()));
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return out;
}

std::vector<FrEvent> FlightRecorder::merged() const {
  std::vector<FrEvent> all;
  for (int pe = 0; pe < npes_; ++pe) {
    const std::vector<FrEvent> s = snapshot(pe);
    all.insert(all.end(), s.begin(), s.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FrEvent& a, const FrEvent& b) {
                     if (a.vt != b.vt) return a.vt < b.vt;
                     if (a.pe != b.pe) return a.pe < b.pe;
                     return a.seq < b.seq;
                   });
  return all;
}

namespace {

void write_event_json(std::ostream& os, const FrEvent& e) {
  os << "{\"vt\": " << e.vt << ", \"seq\": " << e.seq << ", \"pe\": "
     << e.pe << ", \"kind\": \"" << probe_kind_name(e.kind)
     << "\", \"site\": \"" << json_escape(e.site) << "\", \"peer\": " << e.peer
     << ", \"bytes\": " << e.bytes << ", \"errc\": " << e.errc << "}";
}

}  // namespace

void write_blackbox_json(std::ostream& os, const FlightRecorder& fr,
                         const BlackboxInfo& info) {
  os << "{\"schema\": \"" << kBlackboxSchema << "\",\n";
  os << " \"source\": \"" << json_escape(info.source) << "\",\n";
  os << " \"reason\": \"" << json_escape(info.reason) << "\",\n";
  os << " \"errc\": " << info.errc << ",\n";
  os << " \"errc_name\": \"" << json_escape(info.errc_name) << "\",\n";
  os << " \"board\": \"" << json_escape(info.board) << "\",\n";
  os << " \"fault_plan\": \"" << json_escape(info.fault_plan) << "\",\n";
  os << " \"npes\": " << fr.npes() << ",\n";
  os << " \"capacity\": " << fr.capacity() << ",\n";
  os << " \"pes\": [";
  for (int pe = 0; pe < fr.npes(); ++pe) {
    if (pe != 0) os << ",";
    os << "\n  {\"pe\": " << pe << ", \"total_recorded\": "
       << fr.total_recorded(pe) << ", \"events\": [";
    const std::vector<FrEvent> events = fr.snapshot(pe);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i != 0) os << ",";
      os << "\n    ";
      write_event_json(os, events[i]);
    }
    os << "]}";
  }
  os << "\n ],\n";
  os << " \"merged\": [";
  const std::vector<FrEvent> merged = fr.merged();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n  ";
    write_event_json(os, merged[i]);
  }
  os << "\n ]}\n";
}

}  // namespace obs
