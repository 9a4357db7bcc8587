#include "tshmem/runtime.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sim/probe.hpp"
#include "tshmem/context.hpp"
#include "util/error.hpp"
#include "util/owner_add.hpp"

namespace tshmem {

namespace {
thread_local Context* g_current_context = nullptr;

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

// Cache key of an active set's barrier objects.
std::uint64_t barrier_key(const ActiveSet& as) {
  return (static_cast<std::uint64_t>(as.pe_start) << 40) |
         (static_cast<std::uint64_t>(as.log_pe_stride) << 32) |
         static_cast<std::uint64_t>(as.pe_size);
}

bool bool_env(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  return !(s.empty() || s == "0" || s == "false" || s == "off");
}

bool metrics_env_enabled(bool fallback) {
  return bool_env("TSHMEM_METRICS", fallback);
}

int int_env(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

long long ll_env(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoll(v);
}

std::string str_env(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::string(v);
}

tilesim::FaultPlan fault_plan_env(const tilesim::FaultPlan& fallback) {
  const char* v = std::getenv("TSHMEM_FAULT_PLAN");
  if (v == nullptr) return fallback;
  return tilesim::FaultPlan::parse(v);
}

analysis::RaceMode racecheck_env(analysis::RaceMode fallback) {
  const char* v = std::getenv("TSHMEM_RACECHECK");
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  if (s.empty() || s == "0" || s == "false" || s == "off") {
    return analysis::RaceMode::kOff;
  }
  if (s == "2" || s == "fail") return analysis::RaceMode::kFail;
  return analysis::RaceMode::kReport;
}
}  // namespace

StaticRegistry::StaticRegistry(std::size_t arena_bytes)
    : arena_bytes_(arena_bytes) {}

StaticRegistry::Entry StaticRegistry::reserve(const std::string& name,
                                              std::size_t bytes,
                                              std::size_t alignment) {
  if (bytes == 0) throw std::invalid_argument("static object of zero bytes");
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    throw std::invalid_argument("static object alignment must be power of 2");
  }
  std::scoped_lock lk(mu_);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    if (it->second.bytes != bytes) {
      throw std::invalid_argument("static symmetric object '" + name +
                                  "' re-registered with a different size");
    }
    return it->second;
  }
  const std::size_t offset = align_up(next_offset_, alignment);
  if (offset + bytes > arena_bytes_) {
    throw std::runtime_error("static symmetric arena exhausted");
  }
  next_offset_ = offset + bytes;
  const Entry e{offset, bytes};
  entries_.emplace(name, e);
  extents_.emplace(offset, bytes);
  return e;
}

std::size_t StaticRegistry::bytes_used() const {
  std::scoped_lock lk(mu_);
  return next_offset_;
}

std::size_t StaticRegistry::object_count() const {
  std::scoped_lock lk(mu_);
  return entries_.size();
}

bool StaticRegistry::contains_range(std::size_t offset,
                                    std::size_t bytes) const {
  std::scoped_lock lk(mu_);
  // The object starting at or before `offset` is the only candidate:
  // registered objects never overlap.
  auto it = extents_.upper_bound(offset);
  if (it == extents_.begin()) return false;
  --it;
  const std::size_t into = offset - it->first;
  return into < it->second && bytes <= it->second - into;
}

Runtime::Runtime(const DeviceConfig& cfg, RuntimeOptions opts)
    : opts_(opts),
      device_(cfg),
      // Size the arena for the largest possible job plus collective bounce
      // buffers and user tmc allocations.
      cmem_(static_cast<std::size_t>(cfg.tile_count()) * opts.heap_per_pe +
            (std::size_t{64} << 20)),
      udn_(device_),
      intc_(device_),
      statics_(opts.private_per_pe) {
  if (opts.heap_per_pe < (std::size_t{1} << 16)) {
    throw std::invalid_argument("heap_per_pe too small");
  }
  racecheck_mode_ = racecheck_env(opts.racecheck);
  racecheck_granule_ = static_cast<std::size_t>(
      int_env("TSHMEM_RACECHECK_GRANULE",
              static_cast<int>(opts.racecheck_granule)));
  if (!analysis::RaceDetector::valid_granule(racecheck_granule_)) {
    throw std::invalid_argument(
        "racecheck_granule must be a power of two in [1, 64]");
  }
  metrics_enabled_ = metrics_env_enabled(opts.metrics);
  if (metrics_enabled_) {
    op_metrics_ = std::make_unique<obs::OpMetrics>(device_, registry_);
    device_.attach_probe(op_metrics_.get());
  }

  profile_enabled_ = bool_env("TSHMEM_PROFILE", opts.profile);
  if (profile_enabled_) {
    profiler_ = std::make_unique<obs::Profiler>(device_);
    device_.attach_probe(profiler_.get());
  }

  // Flight recorder / time series (docs/OBSERVABILITY.md): independent
  // consumers, except that a blackbox path implies the recorder — a
  // post-mortem dump needs rings to dump.
  blackbox_path_ = str_env("TSHMEM_BLACKBOX", opts.blackbox_path);
  if (bool_env("TSHMEM_FLIGHTREC", opts.flightrec) || !blackbox_path_.empty()) {
    flightrec_ = std::make_unique<obs::FlightRecorder>(
        device_, opts.flightrec_capacity);
    device_.attach_probe(flightrec_.get());
  }
  const long long ts_window =
      ll_env("TSHMEM_TIMESERIES_WINDOW_PS",
             static_cast<long long>(opts.timeseries_window_ps));
  if (ts_window > 0) {
    timeseries_ = std::make_unique<obs::TimeSeries>(
        device_, static_cast<ps_t>(ts_window));
    device_.attach_probe(timeseries_.get());
  }

  debug_validation_ = bool_env("TSHMEM_DEBUG", opts.debug_validation);

  // Fault injection: only a non-empty effective plan attaches an engine,
  // so the default configuration keeps every hardened fast path zero-cost.
  const tilesim::FaultPlan plan = fault_plan_env(opts.fault_plan);
  if (!plan.empty()) {
    fault_engine_ = std::make_unique<tilesim::FaultEngine>(plan);
    device_.attach_fault(fault_engine_.get());
    cmem_.set_map_fault_hook(
        [this](const std::string&, int creator_tile) {
          return fault_engine_->cmem_map_fails(
              creator_tile,
              creator_tile >= 0 && creator_tile < device_.tile_count()
                  ? device_.tile(creator_tile).clock().now()
                  : 0);
        });
  }

  const int wd_ms = int_env("TSHMEM_WATCHDOG_MS", opts.watchdog_ms);
  if (wd_ms > 0) {
    watchdog_.timeout = std::chrono::milliseconds(wd_ms);
    watchdog_.on_timeout = [this, wd_ms](int tile, const char* what) {
      // Stamp the trigger into the dying PE's ring before throwing, so the
      // blackbox dump and tools/triage.py can name the stalled op directly.
      const Tile& self = device_.tile(tile);
      tilesim::probe_event(self, {tilesim::ProbeKind::kError, what,
                                  self.clock().now(), -1, 0,
                                  static_cast<int>(Errc::kWatchdogTimeout)});
      throw Error(Errc::kWatchdogTimeout,
                  "PE " + std::to_string(tile) + " stuck in '" + what +
                      "' for over " + std::to_string(wd_ms) + " ms\n" +
                      watchdog_report());
    };
    device_.attach_watchdog(&watchdog_);
  }
}

Runtime::~Runtime() = default;

Context* Runtime::current() noexcept { return g_current_context; }

std::byte* Runtime::partition_base(int pe) const {
  if (pe < 0 || pe >= npes_ || partitions_ == nullptr) {
    throw std::out_of_range("partition_base: PE out of range or not running");
  }
  return partitions_ + static_cast<std::size_t>(pe) * opts_.heap_per_pe;
}

std::byte* Runtime::private_base(int pe) const {
  if (pe < 0 || pe >= npes_) {
    throw std::out_of_range("private_base: PE out of range");
  }
  return private_arenas_[static_cast<std::size_t>(pe)].get();
}

void Runtime::ArenaUnmap::operator()(std::byte* p) const noexcept {
  ::munmap(p, bytes);
}

Context& Runtime::context(int pe) const {
  if (pe < 0 || pe >= npes_) {
    throw std::out_of_range("context: PE out of range");
  }
  return *contexts_[static_cast<std::size_t>(pe)];
}

void Runtime::note_delivery(int pe, ps_t completion) {
  auto& slot = delivery_[static_cast<std::size_t>(pe)].completion;
  ps_t cur = slot.load(std::memory_order_acquire);
  while (cur < completion &&
         !slot.compare_exchange_weak(cur, completion,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
  }
}

ps_t Runtime::last_delivery(int pe) const {
  return delivery_[static_cast<std::size_t>(pe)].completion.load(
      std::memory_order_acquire);
}

void* Runtime::map_with_retry(const std::string& name, std::size_t bytes,
                              tilesim::Homing homing, int tile) {
  // Bounded retry against injected common-memory map failures: transient
  // map faults are recovered (counted in recovery.cmem.map_retries);
  // persistent ones surface the structured kCmemMapFailed error.
  constexpr int kMaxMapRetries = 4;
  for (int attempt = 0;; ++attempt) {
    try {
      return cmem_.map(name, bytes, homing, tile);
    } catch (const Error& e) {
      if (e.code() != Errc::kCmemMapFailed || attempt >= kMaxMapRetries) {
        throw;
      }
      if (metrics_enabled_) {
        obs::add_count(registry_, "recovery.cmem.map_retries", tile, 1);
      }
    }
  }
}

void* Runtime::alloc_bounce(std::size_t bytes, int tile) {
  // Persistent per-PE bounce slot, grown geometrically and unmapped only at
  // teardown. Placement and the cmem map/unmap/peak statistics therefore
  // depend on each PE's own request sequence alone — never on how the host
  // interleaves PEs — which keeps metrics snapshots bit-identical across
  // replays (docs/ROBUSTNESS.md). Only PE `tile`'s thread uses its slot,
  // so no lock is needed.
  if (tile < 0 || tile >= static_cast<int>(bounce_slots_.size())) {
    throw std::invalid_argument("alloc_bounce outside a running job");
  }
  void*& slot = bounce_slots_[static_cast<std::size_t>(tile)];
  std::size_t& cap = bounce_slot_bytes_[static_cast<std::size_t>(tile)];
  if (slot == nullptr || cap < bytes) {
    std::size_t want = cap == 0 ? std::size_t{4096} : cap;
    while (want < bytes) want *= 2;
    const std::string name = "tshmem_bounce_pe" + std::to_string(tile);
    if (slot != nullptr) {
      cmem_.unmap(name);
      slot = nullptr;
      cap = 0;
    }
    slot = map_with_retry(name, want, tilesim::Homing::kHashForHome, tile);
    cap = want;
  }
  return slot;
}

tmc::SpinBarrier& Runtime::spin_barrier_for(const ActiveSet& as) {
  const std::uint64_t key = barrier_key(as);
  std::scoped_lock lk(barrier_mu_);
  auto it = spin_barriers_.find(key);
  if (it == spin_barriers_.end()) {
    it = spin_barriers_
             .emplace(key,
                      std::make_unique<tmc::SpinBarrier>(device_, as.pe_size))
             .first;
  }
  return *it->second;
}

TokenBarrier& Runtime::token_barrier_for(const ActiveSet& as) {
  const std::uint64_t key = barrier_key(as);
  std::scoped_lock lk(barrier_mu_);
  auto it = token_barriers_.find(key);
  if (it == token_barriers_.end()) {
    it = token_barriers_
             .emplace(key, std::make_unique<TokenBarrier>(as, device_))
             .first;
  }
  return *it->second;
}

void Runtime::note_op(int pe, const char* op) noexcept {
  if (pe < 0 || static_cast<std::size_t>(pe) >= pe_states_.size()) return;
  PeState& st = pe_states_[static_cast<std::size_t>(pe)];
  st.op.store(op, std::memory_order_relaxed);
  tshmem_util::owner_add(st.op_seq, std::uint64_t{1});
}

void Runtime::note_lock_delta(int pe, int delta) noexcept {
  if (pe < 0 || static_cast<std::size_t>(pe) >= pe_states_.size()) return;
  tshmem_util::owner_add(pe_states_[static_cast<std::size_t>(pe)].held_locks,
                         delta);
}

std::string Runtime::watchdog_report() const {
  std::ostringstream os;
  os << "per-PE diagnostic snapshot (" << npes_ << " PE(s)):";
  for (int pe = 0; pe < npes_ && static_cast<std::size_t>(pe) <
                                     pe_states_.size();
       ++pe) {
    const PeState& st = pe_states_[static_cast<std::size_t>(pe)];
    const Tile& tile = device_.tile(pe);
    os << "\n  PE " << pe
       << ": op=" << st.op.load(std::memory_order_relaxed)
       << " ops=" << st.op_seq.load(std::memory_order_relaxed)
       << " vt_ps=" << tile.clock().now()
       << " held_locks=" << st.held_locks.load(std::memory_order_relaxed)
       << " nbi_pending=" << tile.dma().pending() << " udn_words=[";
    for (int q = 0; q < device_.config().udn_demux_queues; ++q) {
      if (q != 0) os << ' ';
      os << udn_.queued_words(pe, q);
    }
    os << ']';
  }
  return os.str();
}

void Runtime::setup_job(int npes) {
  npes_ = npes;
  last_npes_ = npes;
  partitions_ = static_cast<std::byte*>(
      map_with_retry("tshmem_partitions",
                     static_cast<std::size_t>(npes) * opts_.heap_per_pe,
                     tilesim::Homing::kHashForHome, /*creator_tile=*/0));
  // Arenas persist across jobs: only PEs no earlier job ran need one.
  // mmap rejects a zero length, so an empty arena still maps one page.
  const std::size_t arena_bytes =
      std::max<std::size_t>(opts_.private_per_pe, 1);
  while (private_arenas_.size() < static_cast<std::size_t>(npes)) {
    void* arena = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (arena == MAP_FAILED) throw std::bad_alloc();
    private_arenas_.emplace_back(static_cast<std::byte*>(arena),
                                 ArenaUnmap{arena_bytes});
  }
  contexts_.clear();
  delivery_ = std::vector<DeliverySlot>(static_cast<std::size_t>(npes));
  symmetry_slots_.assign(static_cast<std::size_t>(npes), 0);
  pe_states_ = std::vector<PeState>(static_cast<std::size_t>(npes));
  bounce_slots_.assign(static_cast<std::size_t>(npes), nullptr);
  bounce_slot_bytes_.assign(static_cast<std::size_t>(npes), 0);
  for (int pe = 0; pe < npes; ++pe) {
    contexts_.push_back(std::make_unique<Context>(
        *this, pe, device_.tile(pe), partition_base(pe), opts_.heap_per_pe,
        private_base(pe), opts_.private_per_pe));
    if (fault_engine_ != nullptr && fault_engine_->heap_cap_bytes() != 0) {
      contexts_.back()->heap().set_alloc_cap(fault_engine_->heap_cap_bytes());
    }
  }
  if (racecheck_mode_ != analysis::RaceMode::kOff) {
    analysis::RaceDetector::Options ropts;
    ropts.granule = racecheck_granule_;
    race_detector_ = std::make_unique<analysis::RaceDetector>(npes, ropts);
    for (int pe = 0; pe < npes; ++pe) {
      race_detector_->add_region(pe, /*is_static=*/false, partition_base(pe),
                                 opts_.heap_per_pe);
      race_detector_->add_region(pe, /*is_static=*/true, private_base(pe),
                                 opts_.private_per_pe);
    }
    device_.attach_probe(race_detector_.get());
    for (auto& ctx : contexts_) {
      ctx->race_ = race_detector_.get();
    }
  }
  if (op_metrics_ != nullptr) op_metrics_->begin_job(npes);
  // Fixed for the whole job: a PE on the message path and one in the
  // rendezvous would never meet. A fault plan's verdicts act on each token
  // send, and tshmem-check's vector clocks ride on each token.
  token_rendezvous_ = device_.fault() == nullptr && race_detector_ == nullptr;
}

void Runtime::teardown_job() {
  if (race_detector_ != nullptr) {
    // Harvest before the per-run detector dies; reports accumulate across
    // the Runtime's run() calls.
    auto found = race_detector_->reports();
    race_reports_.insert(race_reports_.end(),
                         std::make_move_iterator(found.begin()),
                         std::make_move_iterator(found.end()));
    device_.detach_probe(race_detector_.get());
    race_detector_.reset();
  }
  contexts_.clear();
  delivery_.clear();
  // StaticRegistry is append-only, so [0, bytes_used()) covers every
  // object any job has registered: re-zeroing it on the arenas this job
  // ran on hands the next job zeroed statics. Idle arenas were re-zeroed
  // by the last job that ran on them and are untouched since.
  const std::size_t dirty = statics_.bytes_used();
  const std::size_t ran =
      std::min(static_cast<std::size_t>(npes_), private_arenas_.size());
  for (std::size_t pe = 0; pe < ran; ++pe) {
    std::memset(private_arenas_[pe].get(), 0, dirty);
  }
  for (std::size_t pe = 0; pe < bounce_slots_.size(); ++pe) {
    if (bounce_slots_[pe] != nullptr) {
      cmem_.unmap("tshmem_bounce_pe" + std::to_string(pe));
    }
  }
  bounce_slots_.clear();
  bounce_slot_bytes_.clear();
  {
    std::scoped_lock lk(barrier_mu_);
    spin_barriers_.clear();
    token_barriers_.clear();
  }
  if (partitions_ != nullptr) {
    cmem_.unmap("tshmem_partitions");
    partitions_ = nullptr;
  }
  npes_ = 0;
}

void Runtime::run(int npes, const std::function<void(Context&)>& fn) {
  if (npes < 1 || npes > device_.tile_count()) {
    throw std::invalid_argument("npes must be in [1, tile_count]");
  }
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    throw Error(Errc::kRunInProgress,
                "Runtime::run called while another job is already running on "
                "this runtime (one job at a time; see docs/ROBUSTNESS.md)");
  }
  const std::size_t reports_before = race_reports_.size();
  try {
    setup_job(npes);
  } catch (...) {
    teardown_job();  // undo whatever setup already built
    running_.store(false, std::memory_order_release);
    throw;
  }
  try {
    device_.run(npes, [this, &fn](Tile& tile) {
      Context& ctx = *contexts_[static_cast<std::size_t>(tile.id())];
      // PE 0 runs on the caller, which may be a PE of another runtime.
      Context* const outer = g_current_context;
      g_current_context = &ctx;
      try {
        fn(ctx);
      } catch (...) {
        g_current_context = outer;
        throw;
      }
      g_current_context = outer;
    });
  } catch (const Error& e) {
    // Post-mortem before teardown: the diagnostic board and per-PE rings
    // still describe the dying job here.
    maybe_dump_blackbox(e.what(), static_cast<int>(e.code()));
    teardown_job();
    running_.store(false, std::memory_order_release);
    throw;
  } catch (const std::exception& e) {
    maybe_dump_blackbox(e.what(), 0);
    teardown_job();
    running_.store(false, std::memory_order_release);
    throw;
  } catch (...) {
    maybe_dump_blackbox("unknown exception", 0);
    teardown_job();
    running_.store(false, std::memory_order_release);
    throw;
  }
  scrape_run_stats();
  teardown_job();
  running_.store(false, std::memory_order_release);
  if (racecheck_mode_ == analysis::RaceMode::kFail &&
      race_reports_.size() > reports_before) {
    const std::size_t found = race_reports_.size() - reports_before;
    std::ostringstream os;
    os << "tshmem-check found " << found << " data race(s) (TSHMEM_RACECHECK="
       << "fail; docs/ANALYSIS.md):";
    for (std::size_t i = reports_before; i < race_reports_.size(); ++i) {
      os << "\n  " << race_reports_[i].describe();
    }
    throw Error(Errc::kRaceDetected, os.str());
  }
}

obs::MetricsSnapshot Runtime::metrics() const {
  return registry_.snapshot(config().short_name, last_npes_);
}

bool Runtime::write_blackbox(std::ostream& os, const std::string& reason,
                             int errc) {
  if (flightrec_ == nullptr) return false;
  obs::BlackboxInfo info;
  info.reason = reason;
  info.errc = errc;
  info.errc_name = errc != 0 ? errc_name(static_cast<Errc>(errc)) : "";
  info.board = watchdog_report();
  if (fault_engine_ != nullptr) {
    info.fault_plan = fault_engine_->plan().describe();
  }
  info.source = "runtime";
  obs::write_blackbox_json(os, *flightrec_, info);
  return true;
}

void Runtime::maybe_dump_blackbox(const std::string& reason, int errc) {
  if (flightrec_ == nullptr || blackbox_path_.empty()) return;
  std::ofstream os(blackbox_path_);
  if (!os) return;  // an unwritable dump path must not mask the real error
  write_blackbox(os, reason, errc);
}

void Runtime::scrape_run_stats() {
  if (!metrics_enabled_) return;
  const auto tiles = static_cast<std::size_t>(device_.tile_count());
  if (scraped_udn_.size() != tiles) {
    scraped_udn_.assign(tiles, {});
    scraped_interrupts_.assign(tiles, 0);
  }
  auto delta = [](std::uint64_t cur, std::uint64_t& prev) {
    const std::uint64_t d = cur - prev;
    prev = cur;
    return d;
  };
  // Injected-fault families: the engine log is cumulative across runs, so
  // scrape this run's new events per (site, tile).
  std::map<std::pair<int, int>, std::uint64_t> new_faults;
  if (fault_engine_ != nullptr) {
    std::map<std::pair<int, int>, std::uint64_t> counts;
    for (const tilesim::FaultEvent& ev : fault_engine_->events()) {
      ++counts[{static_cast<int>(ev.site), ev.tile}];
    }
    for (const auto& [key, cur] : counts) {
      std::uint64_t& prev = scraped_fault_[key];
      if (cur > prev) new_faults[key] = cur - prev;
      prev = cur;
    }
  }
  for (int pe = 0; pe < npes_; ++pe) {
    const Tile& tile = device_.tile(pe);
    obs::add_count(registry_, "shmem.interrupt.services", pe,
                   delta(intc_.raised(pe),
                         scraped_interrupts_[static_cast<std::size_t>(pe)]));
    // Each rejected descriptor post completed its NBI transfer blocking.
    const auto fallbacks = new_faults.find(
        {static_cast<int>(tilesim::FaultSite::kDmaDescFail), pe});
    obs::add_count(registry_, "recovery.nbi.sync_fallbacks", pe,
                   fallbacks != new_faults.end() ? fallbacks->second : 0);
    // busy/idle cover the interval since the last clock reset — with
    // harness_sync_reset() benches, the final measured phase.
    obs::add_count(registry_, "sim.tile.busy_ps", pe, tile.clock().busy_ps());
    obs::add_count(registry_, "sim.tile.idle_ps", pe, tile.clock().idle_ps());

    const auto traffic = udn_.traffic(pe);
    auto& up = scraped_udn_[static_cast<std::size_t>(pe)];
    obs::add_count(registry_, "udn.packets", pe,
                   delta(traffic.packets, up.packets));
    obs::add_count(registry_, "udn.words", pe, delta(traffic.words, up.words));
    obs::add_count(registry_, "udn.hops", pe, delta(traffic.hops, up.hops));
    if (fault_engine_ != nullptr) {
      obs::add_count(registry_, "recovery.udn.retries", pe,
                     delta(traffic.retries, up.retries));
      obs::add_count(registry_, "recovery.udn.backoff_ps", pe,
                     delta(traffic.backoff_ps, up.backoff_ps));
    } else {
      up.retries = traffic.retries;
      up.backoff_ps = traffic.backoff_ps;
    }

    Context& ctx = *contexts_[static_cast<std::size_t>(pe)];
    obs::set_level(registry_, "shmem.heap.bytes_in_use", pe,
                   static_cast<std::int64_t>(ctx.heap().bytes_in_use()));
    obs::set_level(registry_, "shmem.heap.blocks", pe,
                   static_cast<std::int64_t>(ctx.heap().block_count()));

    // DMA engines are cleared at every Device::run entry, so their stats
    // are already this run's values (peak depth covers the last phase when
    // benches reset clocks mid-run).
    const tilesim::DmaStats dma = tile.dma().stats();
    obs::set_level(registry_, "sim.dma.peak_pending", pe,
                   static_cast<std::int64_t>(dma.peak_pending));
  }

  // Device-wide aggregates use pe = -1.
  const tmc::CommonMemory::Stats cs = cmem_.stats();
  obs::add_count(registry_, "tmc.cmem.maps", -1,
                 delta(cs.maps, scraped_cmem_.maps));
  obs::add_count(registry_, "tmc.cmem.unmaps", -1,
                 delta(cs.unmaps, scraped_cmem_.unmaps));
  obs::set_level(registry_, "tmc.cmem.peak_bytes", -1,
                 static_cast<std::int64_t>(cs.peak_bytes));

  // Spin barriers are per-run objects (cleared in teardown), so their wait
  // totals are already this run's delta.
  std::uint64_t spins = 0;
  {
    std::scoped_lock lk(barrier_mu_);
    for (const auto& [key, barrier] : spin_barriers_) {
      spins += barrier->waits();
    }
  }
  obs::add_count(registry_, "tmc.barrier.spin_waits", -1, spins);

  obs::set_level(registry_, "shmem.statics.bytes_used", -1,
                 static_cast<std::int64_t>(statics_.bytes_used()));
  obs::set_level(registry_, "shmem.statics.objects", -1,
                 static_cast<std::int64_t>(statics_.object_count()));

  // tshmem-check accounting (docs/ANALYSIS.md). The detector is per-run,
  // so its stats are already this run's values.
  if (race_detector_ != nullptr) {
    const analysis::RaceDetector::Stats rs = race_detector_->stats();
    obs::add_count(registry_, "analysis.accesses.checked", -1,
                   rs.checked_accesses);
    obs::add_count(registry_, "analysis.sync.edges", -1, rs.sync_edges);
    obs::add_count(registry_, "analysis.races.reported", -1, rs.race_pairs);
    obs::add_count(registry_, "analysis.races.dropped", -1,
                   rs.dropped_reports);
  }

  // One counter per (site, tile) that fired.
  for (const auto& [key, n] : new_faults) {
    obs::add_count(registry_,
                   std::string("fault.") +
                       tilesim::fault_site_name(
                           static_cast<tilesim::FaultSite>(key.first)),
                   key.second, n);
  }
}

void Runtime::check_symmetric_arg(int pe, std::uint64_t value,
                                  const char* what) {
  symmetry_slots_[static_cast<std::size_t>(pe)] = value;
  device_.host_sync();
  bool mismatch = false;
  for (const std::uint64_t v : symmetry_slots_) {
    if (v != symmetry_slots_[0]) mismatch = true;
  }
  device_.host_sync();  // everyone read before slots are reused
  if (mismatch) {
    throw std::logic_error(
        std::string("symmetric-allocation mismatch in ") + what +
        ": PEs passed different arguments (paper SIV-A requires identical "
        "calls on every PE)");
  }
}

void run_spmd(const DeviceConfig& cfg, int npes,
              const std::function<void(Context&)>& fn, RuntimeOptions opts) {
  Runtime rt(cfg, opts);
  rt.run(npes, fn);
}

}  // namespace tshmem
