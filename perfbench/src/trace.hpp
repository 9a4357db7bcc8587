// Host-time spans and the summary statistics the benchmark reports.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a layer's public functions. Every span carries a name of the
// form "<layer>.<call>" (layer = sim, tmc, tshmem, svc, apps, obs, or bench
// for the benchmark itself), its start and end on the host's steady clock,
// and the span that caused it. Spans are kept in memory, one track per
// host thread, and analysed once the run is over.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Position of a span: (track, index within the track). track < 0 = none.
struct SpanRef {
  int track = -1;
  int index = -1;
};

struct Span {
  const char* name = "";  ///< static string "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanRef parent;
};

/// In-memory span store. One track per host thread; a track is written
/// only by the thread that owns it, so recording takes no lock. Tracks
/// must all be created before any thread starts recording.
class Tracer {
 public:
  explicit Tracer(int tracks) : tracks_(static_cast<std::size_t>(tracks)) {}

  [[nodiscard]] int track_count() const {
    return static_cast<int>(tracks_.size());
  }
  [[nodiscard]] const std::vector<Span>& track(int t) const {
    return tracks_[static_cast<std::size_t>(t)].spans;
  }

  /// Opens a span on `track`. Its parent is `parent` when given, else the
  /// innermost span still open on the same track.
  SpanRef open(int track, const char* name, SpanRef parent = {}) {
    Track& tr = tracks_[static_cast<std::size_t>(track)];
    if (parent.track < 0 && !tr.open.empty()) {
      parent = SpanRef{track, tr.open.back()};
    }
    const int idx = static_cast<int>(tr.spans.size());
    tr.spans.push_back(Span{name, now_ns(), 0, parent});
    tr.open.push_back(idx);
    return SpanRef{track, idx};
  }
  void close(SpanRef ref) {
    Track& tr = tracks_[static_cast<std::size_t>(ref.track)];
    tr.spans[static_cast<std::size_t>(ref.index)].end_ns = now_ns();
    tr.open.pop_back();
  }

  /// Adds a finished span (tests, and spans timed elsewhere).
  SpanRef add(int track, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, SpanRef parent = {}) {
    Track& tr = tracks_[static_cast<std::size_t>(track)];
    const int idx = static_cast<int>(tr.spans.size());
    tr.spans.push_back(Span{name, start_ns, end_ns, parent});
    return SpanRef{track, idx};
  }

 private:
  struct Track {
    std::vector<Span> spans;
    std::vector<int> open;
  };
  std::vector<Track> tracks_;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class Scope {
 public:
  Scope(Tracer* t, int track, const char* name, SpanRef parent = {})
      : t_(t) {
    if (t_ != nullptr) ref_ = t_->open(track, name, parent);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(ref_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] SpanRef ref() const { return ref_; }

 private:
  Tracer* t_;
  SpanRef ref_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample; q in (0, 100].
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail the benchmark reports: the highest percentile of the ladder
/// 50, 90, 99, 99.9, ... that still has at least ten samples beyond it.
/// `pct` is 0 (and `value` 0) when fewer than 20 samples exist.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};

inline Tail tail_of_sorted(const std::vector<double>& sorted) {
  constexpr std::size_t kBeyond = 10;
  Tail best;
  const std::size_t n = sorted.size();
  for (double q : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank < 1 || n - rank < kBeyond) break;
    best = Tail{q, sorted[rank - 1]};
  }
  return best;
}

/// Count, median and tail of one sample set.
struct Dist {
  std::size_t count = 0;
  double p50 = 0.0;
  Tail tail;
};

inline Dist dist_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Dist d;
  d.count = v.size();
  d.p50 = percentile_sorted(v, 50.0);
  d.tail = tail_of_sorted(v);
  return d;
}

// ---------------------------------------------------------------------------
// Self time
// ---------------------------------------------------------------------------

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
    std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_s = 0;
  std::int64_t cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Per-name totals: calls, inclusive time, self time, and durations.
struct NameStats {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_ns;
};

struct SelfTimeReport {
  std::map<std::string, NameStats> by_name;
  std::map<std::string, std::int64_t> self_by_layer;  ///< "tshmem" -> ns
  std::int64_t self_total_ns = 0;
  /// Share of all self time that sits in a library layer rather than in
  /// the benchmark's own spans ("bench.*").
  [[nodiscard]] double explained_frac() const {
    if (self_total_ns <= 0) return 0.0;
    const auto it = self_by_layer.find("bench");
    const std::int64_t bench = it == self_by_layer.end() ? 0 : it->second;
    return static_cast<double>(self_total_ns - bench) /
           static_cast<double>(self_total_ns);
  }
};

inline std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover. Children on other tracks (the PE threads of a job)
/// count like any other child; overlapping children are counted once.
inline SelfTimeReport self_times(const Tracer& tr) {
  SelfTimeReport rep;
  std::vector<std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>>
      kids(static_cast<std::size_t>(tr.track_count()));
  for (int t = 0; t < tr.track_count(); ++t) {
    kids[static_cast<std::size_t>(t)].resize(tr.track(t).size());
  }
  for (int t = 0; t < tr.track_count(); ++t) {
    for (const Span& s : tr.track(t)) {
      if (s.parent.track < 0) continue;
      kids[static_cast<std::size_t>(s.parent.track)]
          [static_cast<std::size_t>(s.parent.index)]
              .emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (int t = 0; t < tr.track_count(); ++t) {
    const auto& spans = tr.track(t);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      auto& k = kids[static_cast<std::size_t>(t)][i];
      const std::int64_t self =
          dur - (k.empty() ? 0 : union_length(std::move(k), s.start_ns,
                                               s.end_ns));
      NameStats& ns = rep.by_name[s.name];
      ++ns.count;
      ns.total_ns += dur;
      ns.self_ns += self;
      ns.durations_ns.push_back(static_cast<double>(dur));
      rep.self_by_layer[layer_of(s.name)] += self;
      rep.self_total_ns += self;
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Virtual-time digests
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: digests of virtual times, which must repeat
/// exactly across runs, hosts and seeds.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
