#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <tuple>

namespace obs {

namespace {

using tilesim::ProfPhase;
using tilesim::kProfPhaseCount;

// Per-epoch caps: a runaway workload must degrade (dropped counters) rather
// than exhaust host memory.
constexpr std::size_t kMaxTimeline = std::size_t{1} << 20;
constexpr std::size_t kMaxEdges = std::size_t{1} << 20;
constexpr std::size_t kMaxStack = 256;
constexpr std::size_t kMaxPathSegments = 512;

/// Saturating a - b for unsigned virtual time.
[[nodiscard]] ps_t sub_sat(ps_t a, ps_t b) noexcept {
  return a > b ? a - b : 0;
}

}  // namespace

Profiler::Profiler(const tilesim::Device& device) : device_(&device) {
  const int n = device.tile_count();
  pes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pes_.push_back(std::make_unique<PeState>());
  }
}

Profiler::~Profiler() = default;

void Profiler::on_span_begin(int tile, tilesim::ProbeKind kind,
                             const char* site, ps_t now) {
  const ProfPhase phase = tilesim::phase_of(kind);
  PeState& st = *pes_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(st.mu);
  if (st.epoch.stack.size() >= kMaxStack ||
      st.epoch.timeline.size() >= kMaxTimeline) {
    ++st.cum.dropped;
    // Push a sentinel frame anyway so the matching on_span_end stays
    // balanced (it is attributed, just without a timeline entry).
    if (st.epoch.stack.size() < 2 * kMaxStack) {
      st.epoch.stack.push_back({phase, site, now, 0});
    }
    return;
  }
  st.epoch.stack.push_back({phase, site, now, 0});
  st.epoch.timeline.emplace_back(now, static_cast<std::uint8_t>(phase));
}

void Profiler::on_span_end(int tile, ps_t now) {
  PeState& st = *pes_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(st.mu);
  if (st.epoch.stack.empty()) {
    ++st.cum.dropped;  // unbalanced end (reset mid-span); nothing to close
    return;
  }
  const std::uint8_t outer = close_span(tile, st.epoch, st.cum, now);
  if (st.epoch.timeline.size() < kMaxTimeline) {
    st.epoch.timeline.emplace_back(now, outer);
  } else {
    ++st.cum.dropped;
  }
}

std::uint8_t Profiler::close_span(int pe, PeEpoch& ep, PeCum& c, ps_t end) {
  std::string key = "pe" + std::to_string(pe);
  for (const OpenSpan& s : ep.stack) {
    key += ';';
    key += tilesim::prof_phase_name(s.phase);
    key += ':';
    key += s.site;
  }
  const OpenSpan top = ep.stack.back();
  ep.stack.pop_back();
  const ps_t dur = sub_sat(end, top.begin_ps);
  const ps_t self = sub_sat(dur, top.child_ps);
  ProfileSite& agg = c.agg[{static_cast<std::uint8_t>(top.phase), top.site}];
  agg.calls += 1;
  agg.self_ps += self;
  agg.total_ps += dur;
  c.folded[key] += self;
  if (ep.stack.empty()) return static_cast<std::uint8_t>(ProfPhase::kCompute);
  ep.stack.back().child_ps += dur;
  return static_cast<std::uint8_t>(ep.stack.back().phase);
}

void Profiler::on_wait_edge(int tile, int src_tile, tilesim::ProbeKind kind,
                            const char* site, ps_t from_ps, ps_t to_ps) {
  PeState& st = *pes_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(st.mu);
  if (st.epoch.edges.size() >= kMaxEdges) {
    ++st.cum.dropped;
    return;
  }
  const ProfPhase phase = st.epoch.stack.empty()
                              ? tilesim::phase_of(kind)
                              : st.epoch.stack.back().phase;
  st.epoch.edges.push_back({src_tile, phase, site, from_ps, to_ps});
}

namespace {

/// Integrates a timeline's piecewise-constant innermost phase over
/// [from, to] into `out`. Phase before the first change point is kCompute.
void integrate(const std::vector<std::pair<ps_t, std::uint8_t>>& timeline,
               ps_t from, ps_t to, std::array<ps_t, kProfPhaseCount>& out) {
  if (to <= from) return;
  ps_t cursor = from;
  std::uint8_t phase = static_cast<std::uint8_t>(ProfPhase::kCompute);
  for (const auto& [t, p] : timeline) {
    if (t <= cursor) {
      phase = p;
      continue;
    }
    const ps_t seg_end = std::min(t, to);
    if (seg_end > cursor) {
      out[phase] += seg_end - cursor;
      cursor = seg_end;
    }
    phase = p;
    if (cursor >= to) break;
  }
  if (to > cursor) out[phase] += to - cursor;
}

[[nodiscard]] int argmax_phase(
    const std::array<ps_t, kProfPhaseCount>& a) noexcept {
  int best = 0;
  for (int i = 1; i < kProfPhaseCount; ++i) {
    if (a[static_cast<std::size_t>(i)] > a[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

}  // namespace

void Profiler::critical_path(
    const std::vector<ps_t>& final_vts, const std::vector<PeEpoch>& epochs,
    ps_t total, std::vector<CritSegment>& path,
    std::array<ps_t, kProfPhaseCount>& attr) {
  path.clear();
  attr.fill(0);
  if (total == 0) return;
  const int npes = static_cast<int>(epochs.size());

  int pe = 0;
  for (int i = 1; i < npes; ++i) {
    if (final_vts[static_cast<std::size_t>(i)] >
        final_vts[static_cast<std::size_t>(pe)]) {
      pe = i;
    }
  }
  ps_t t = total;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(npes));
  for (int i = 0; i < npes; ++i) {
    cursor[static_cast<std::size_t>(i)] =
        epochs[static_cast<std::size_t>(i)].edges.size();
  }

  // Emits a local (executing) segment [a, b] on `who`, attributed to the
  // dominant innermost phase over the interval.
  const auto emit_local = [&](int who, ps_t a, ps_t b) {
    if (b <= a) return;
    std::array<ps_t, kProfPhaseCount> local{};
    integrate(epochs[static_cast<std::size_t>(who)].timeline, a, b, local);
    for (int p = 0; p < kProfPhaseCount; ++p) {
      attr[static_cast<std::size_t>(p)] += local[static_cast<std::size_t>(p)];
    }
    const int dom = argmax_phase(local);
    path.push_back({"local", who, -1,
                    tilesim::prof_phase_name(static_cast<ProfPhase>(dom)), "",
                    a, b});
  };

  // Backward walk: from the last-finishing PE at `total`, follow the most
  // recent wait edge ending at-or-before the frontier; cross-PE edges hop
  // to the producer, self/unknown edges stay (the wait itself is on-path).
  while (path.size() < kMaxPathSegments && t > 0) {
    const auto& edges = epochs[static_cast<std::size_t>(pe)].edges;
    std::size_t& cur = cursor[static_cast<std::size_t>(pe)];
    std::size_t idx = cur;
    while (idx > 0 && edges[idx - 1].to_ps > t) --idx;
    if (idx == 0) {
      emit_local(pe, 0, t);
      break;
    }
    const Edge& e = edges[idx - 1];
    cur = idx - 1;
    emit_local(pe, e.to_ps, t);
    path.push_back({"wait", pe, e.src, tilesim::prof_phase_name(e.phase),
                    e.site, e.from_ps, e.to_ps});
    const bool hop = e.src >= 0 && e.src < npes && e.src != pe;
    if (hop) {
      // The producer's activity covers this interval; the wait segment is
      // attribution metadata, not on-path time (no double counting).
      pe = e.src;
      t = e.to_ps;
    } else {
      attr[static_cast<std::size_t>(e.phase)] += sub_sat(e.to_ps, e.from_ps);
      t = e.from_ps;
    }
  }
  std::reverse(path.begin(), path.end());
}

void Profiler::fold_epoch(const std::vector<ps_t>& final_vts,
                          std::vector<PeEpoch>& epochs,
                          std::vector<PeCum*>& cum, Globals& g) {
  const int npes = static_cast<int>(epochs.size());
  ps_t total = 0;
  for (const ps_t v : final_vts) total = std::max(total, v);

  for (int i = 0; i < npes; ++i) {
    PeEpoch& ep = epochs[static_cast<std::size_t>(i)];
    PeCum& c = *cum[static_cast<std::size_t>(i)];
    const ps_t fin = final_vts[static_cast<std::size_t>(i)];

    // Force-close any spans still open at the epoch boundary at `fin`
    // (attributing their time), innermost first.
    while (!ep.stack.empty()) {
      ep.timeline.emplace_back(fin, close_span(i, ep, c, fin));
    }

    std::array<ps_t, kProfPhaseCount> epoch_phase{};
    integrate(ep.timeline, 0, fin, epoch_phase);
    for (int p = 0; p < kProfPhaseCount; ++p) {
      c.phase_ps[static_cast<std::size_t>(p)] +=
          epoch_phase[static_cast<std::size_t>(p)];
    }
    // The compute residual (time under no span) gets an explicit site so
    // it shows up in the site table and flamegraph alongside real spans.
    const ps_t residual = epoch_phase[static_cast<std::size_t>(
        ProfPhase::kCompute)];
    if (residual > 0) {
      ProfileSite& agg = c.agg[{
          static_cast<std::uint8_t>(ProfPhase::kCompute), "compute"}];
      agg.calls += 1;
      agg.self_ps += residual;
      agg.total_ps += residual;
      c.folded["pe" + std::to_string(i) + ";compute"] += residual;
    }

    for (const Edge& e : ep.edges) {
      auto& [count, wait] = c.edge_agg[{e.src, e.site}];
      count += 1;
      wait += sub_sat(e.to_ps, e.from_ps);
    }
  }

  if (total > 0) {
    if (total > g.best_epoch_vt) {
      g.best_epoch_vt = total;
      g.best_epoch_base = g.total_vt_ps;
      critical_path(final_vts, epochs, total, g.best_path, g.best_crit);
    }
    g.total_vt_ps += total;
    g.epochs += 1;
  }
}

std::vector<ps_t> Profiler::final_clock_snapshot() const {
  std::vector<ps_t> vts(pes_.size(), 0);
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    vts[i] = device_->tile(static_cast<int>(i)).clock().now();
    const PeEpoch& ep = pes_[i]->epoch;
    if (!ep.timeline.empty()) {
      vts[i] = std::max(vts[i], ep.timeline.back().first);
    }
    if (!ep.edges.empty()) {
      vts[i] = std::max(vts[i], ep.edges.back().to_ps);
    }
  }
  return vts;
}

void Profiler::on_clock_reset() {
  std::scoped_lock g_lk(global_mu_);
  // Single-threaded safe point (Device::reset_clocks contract): tile
  // clocks still hold the finished epoch's final values.
  std::vector<ps_t> final_vts = final_clock_snapshot();

  bool empty = true;
  for (std::size_t i = 0; i < pes_.size() && empty; ++i) {
    std::scoped_lock lk(pes_[i]->mu);
    const PeEpoch& ep = pes_[i]->epoch;
    if (final_vts[i] != 0 || !ep.timeline.empty() || !ep.edges.empty() ||
        !ep.stack.empty()) {
      empty = false;
    }
  }
  if (empty) return;  // back-to-back resets; not a measured epoch

  std::vector<PeEpoch> moved(pes_.size());
  std::vector<PeCum*> cum(pes_.size());
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    PeState& st = *pes_[i];
    std::scoped_lock lk(st.mu);
    moved[i] = std::move(st.epoch);
    st.epoch = PeEpoch{};
    // Spans that stay open across the reset restart at virtual time zero
    // in the new epoch.
    for (const OpenSpan& s : moved[i].stack) {
      st.epoch.stack.push_back({s.phase, s.site, 0, 0});
      st.epoch.timeline.emplace_back(0, static_cast<std::uint8_t>(s.phase));
    }
    cum[i] = &st.cum;
  }
  fold_epoch(final_vts, moved, cum, globals_);
}

ProfileReport Profiler::report() const {
  std::scoped_lock g_lk(global_mu_);
  // Copy everything, then fold the still-open tail epoch on the copies so
  // the live state is untouched (more runs may follow this report).
  Globals g = globals_;
  std::vector<PeEpoch> epochs(pes_.size());
  std::vector<PeCum> cums(pes_.size());
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    std::scoped_lock lk(pes_[i]->mu);
    epochs[i] = pes_[i]->epoch;
    cums[i] = pes_[i]->cum;
  }
  std::vector<ps_t> final_vts = final_clock_snapshot();

  bool tail = false;
  for (std::size_t i = 0; i < pes_.size() && !tail; ++i) {
    if (final_vts[i] != 0 || !epochs[i].timeline.empty() ||
        !epochs[i].edges.empty() || !epochs[i].stack.empty()) {
      tail = true;
    }
  }
  if (tail) {
    std::vector<PeCum*> cum_ptrs(pes_.size());
    for (std::size_t i = 0; i < pes_.size(); ++i) cum_ptrs[i] = &cums[i];
    fold_epoch(final_vts, epochs, cum_ptrs, g);
  }

  ProfileReport r;
  r.npes = static_cast<int>(pes_.size());
  r.epochs = g.epochs;
  r.total_vt_ps = g.total_vt_ps;

  std::map<std::pair<std::uint8_t, std::string>, ProfileSite> site_merge;
  std::map<std::tuple<int, int, std::string>, std::pair<std::uint64_t, ps_t>>
      edge_merge;
  for (std::size_t i = 0; i < cums.size(); ++i) {
    const PeCum& c = cums[i];
    r.dropped_events += c.dropped;
    ps_t pe_total = 0;
    for (int p = 0; p < kProfPhaseCount; ++p) {
      const ps_t v = c.phase_ps[static_cast<std::size_t>(p)];
      r.phase_ps[static_cast<std::size_t>(p)] += v;
      pe_total += v;
    }
    if (pe_total > 0) {
      r.pe_phase_ps.emplace_back(static_cast<int>(i), c.phase_ps);
    }
    for (const auto& [key, site] : c.agg) {
      ProfileSite& m = site_merge[key];
      m.calls += site.calls;
      m.self_ps += site.self_ps;
      m.total_ps += site.total_ps;
    }
    for (const auto& [key, val] : c.edge_agg) {
      auto& [count, wait] =
          edge_merge[{static_cast<int>(i), key.first, key.second}];
      count += val.first;
      wait += val.second;
    }
    for (const auto& [key, ps] : c.folded) r.folded[key] += ps;
  }

  for (const auto& [key, site] : site_merge) {
    ProfileSite s = site;
    s.phase = tilesim::prof_phase_name(static_cast<ProfPhase>(key.first));
    s.site = key.second;
    r.sites.push_back(std::move(s));
  }
  std::sort(r.sites.begin(), r.sites.end(),
            [](const ProfileSite& a, const ProfileSite& b) {
              if (a.total_ps != b.total_ps) return a.total_ps > b.total_ps;
              if (a.phase != b.phase) return a.phase < b.phase;
              return a.site < b.site;
            });

  for (const auto& [key, val] : edge_merge) {
    ProfileWaitEdge e;
    e.dst_pe = std::get<0>(key);
    e.src_pe = std::get<1>(key);
    e.site = std::get<2>(key);
    e.count = val.first;
    e.wait_ps = val.second;
    r.top_edges.push_back(std::move(e));
  }
  std::sort(r.top_edges.begin(), r.top_edges.end(),
            [](const ProfileWaitEdge& a, const ProfileWaitEdge& b) {
              if (a.wait_ps != b.wait_ps) return a.wait_ps > b.wait_ps;
              if (a.dst_pe != b.dst_pe) return a.dst_pe < b.dst_pe;
              if (a.src_pe != b.src_pe) return a.src_pe < b.src_pe;
              return a.site < b.site;
            });
  if (r.top_edges.size() > top_k_) r.top_edges.resize(top_k_);

  r.crit_epoch_vt_ps = g.best_epoch_vt;
  r.crit_epoch_base_ps = g.best_epoch_base;
  r.critical_path = std::move(g.best_path);
  r.crit_phase_ps = g.best_crit;
  ps_t crit_sum = 0;
  for (const ps_t v : r.crit_phase_ps) crit_sum += v;
  const int dom = argmax_phase(r.crit_phase_ps);
  r.dominant_phase = tilesim::prof_phase_name(static_cast<ProfPhase>(dom));
  r.dominant_share =
      crit_sum > 0 ? static_cast<double>(
                         r.crit_phase_ps[static_cast<std::size_t>(dom)]) /
                         static_cast<double>(crit_sum)
                   : 0.0;
  return r;
}

// ===========================================================================
// Exporters
// ===========================================================================

namespace {

[[nodiscard]] std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

void write_profile_json(std::ostream& os, const ProfileReport& r) {
  os << "{\n  \"schema\": \"" << kProfileSchema << "\",\n";
  os << "  \"npes\": " << r.npes << ",\n";
  os << "  \"epochs\": " << r.epochs << ",\n";
  os << "  \"total_vt_ps\": " << r.total_vt_ps << ",\n";
  os << "  \"dropped_events\": " << r.dropped_events << ",\n";

  os << "  \"phases\": [";
  for (int p = 0; p < kProfPhaseCount; ++p) {
    os << (p == 0 ? "\n" : ",\n") << "    {\"phase\": \""
       << tilesim::prof_phase_name(static_cast<ProfPhase>(p))
       << "\", \"total_ps\": " << r.phase_ps[static_cast<std::size_t>(p)]
       << "}";
  }
  os << "\n  ],\n";

  os << "  \"pes\": [";
  for (std::size_t i = 0; i < r.pe_phase_ps.size(); ++i) {
    const auto& [pe, phases] = r.pe_phase_ps[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"pe\": " << pe << ", \"phases\": {";
    for (int p = 0; p < kProfPhaseCount; ++p) {
      os << (p == 0 ? "" : ", ") << "\""
         << tilesim::prof_phase_name(static_cast<ProfPhase>(p))
         << "\": " << phases[static_cast<std::size_t>(p)];
    }
    os << "}}";
  }
  os << (r.pe_phase_ps.empty() ? "" : "\n  ") << "],\n";

  os << "  \"sites\": [";
  for (std::size_t i = 0; i < r.sites.size(); ++i) {
    const ProfileSite& s = r.sites[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"phase\": \""
       << json_escape(s.phase) << "\", \"site\": \"" << json_escape(s.site)
       << "\", \"calls\": " << s.calls << ", \"self_ps\": " << s.self_ps
       << ", \"total_ps\": " << s.total_ps << "}";
  }
  os << (r.sites.empty() ? "" : "\n  ") << "],\n";

  os << "  \"top_wait_edges\": [";
  for (std::size_t i = 0; i < r.top_edges.size(); ++i) {
    const ProfileWaitEdge& e = r.top_edges[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"dst_pe\": " << e.dst_pe
       << ", \"src_pe\": " << e.src_pe << ", \"site\": \""
       << json_escape(e.site) << "\", \"count\": " << e.count
       << ", \"wait_ps\": " << e.wait_ps << "}";
  }
  os << (r.top_edges.empty() ? "" : "\n  ") << "],\n";

  os << "  \"critical_path\": {\n";
  os << "    \"epoch_vt_ps\": " << r.crit_epoch_vt_ps << ",\n";
  os << "    \"dominant_phase\": \"" << json_escape(r.dominant_phase)
     << "\",\n";
  os << "    \"dominant_share\": " << fixed6(r.dominant_share) << ",\n";
  os << "    \"phases\": [";
  for (int p = 0; p < kProfPhaseCount; ++p) {
    os << (p == 0 ? "\n" : ",\n") << "      {\"phase\": \""
       << tilesim::prof_phase_name(static_cast<ProfPhase>(p))
       << "\", \"ps\": " << r.crit_phase_ps[static_cast<std::size_t>(p)]
       << "}";
  }
  os << "\n    ],\n";
  os << "    \"segments\": [";
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const CritSegment& s = r.critical_path[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \""
       << json_escape(s.kind) << "\", \"pe\": " << s.pe
       << ", \"src_pe\": " << s.src_pe << ", \"phase\": \""
       << json_escape(s.phase) << "\", \"site\": \"" << json_escape(s.site)
       << "\", \"from_ps\": " << s.from_ps << ", \"to_ps\": " << s.to_ps
       << "}";
  }
  os << (r.critical_path.empty() ? "" : "\n    ") << "]\n";
  os << "  }\n}\n";
}

void write_profile_folded(std::ostream& os, const ProfileReport& r) {
  for (const auto& [stack, self_ps] : r.folded) {
    os << stack << ' ' << self_ps << '\n';
  }
}

std::vector<TraceFlow> profile_flow_events(const ProfileReport& r, int pid,
                                           std::uint64_t first_id) {
  std::vector<TraceFlow> flows;
  std::uint64_t id = first_id;
  for (const CritSegment& s : r.critical_path) {
    if (s.kind != "wait") continue;
    TraceFlow f;
    f.pid = pid;
    f.id = id++;
    f.name = s.site.empty() ? s.phase : s.site;
    f.src_tile = s.src_pe >= 0 ? s.src_pe : s.pe;
    f.src_ps = r.crit_epoch_base_ps + s.from_ps;
    f.dst_tile = s.pe;
    f.dst_ps = r.crit_epoch_base_ps + s.to_ps;
    flows.push_back(std::move(f));
  }
  return flows;
}

}  // namespace obs
