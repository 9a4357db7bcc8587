#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "apps/cbir.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "tshmem/cluster.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace perfbench {
namespace {

using tilesim::ps_t;
using tshmem::ActiveSet;
using tshmem::Context;
using tshmem::Runtime;

// ===========================================================================
// Metric catalogue: the names BENCHMARK.json lists, with their units.
// ===========================================================================

using MetricTable = std::vector<std::pair<std::string, std::string>>;

const MetricTable& end_to_end_table() {
  static const MetricTable t = {
      {"ops_per_s", "1/s"},
      {"cpu_us_per_op", "us"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return t;
}

void add_dist_names(MetricTable& t, const std::string& base,
                    const std::string& unit) {
  t.emplace_back(base + ".count", "count");
  t.emplace_back(base + ".p50", unit);
  t.emplace_back(base + ".tail", unit);
  t.emplace_back(base + ".tail_pct", "%");
}

const MetricTable& per_layer_table() {
  static const MetricTable t = [] {
    MetricTable m = {
        {"tshmem.run.count", "count"},
        {"tshmem.run.host_s", "s"},
        {"tshmem.run.overhead_s", "s"},
        {"tshmem.run.caller_minflt", "count"},
        {"tshmem.run.empty_us", "us"},
        {"sim.device.run_empty_us", "us"},
        {"proc.minflt", "count"},
        {"proc.user_s", "s"},
        {"proc.sys_s", "s"},
        {"proc.nvcsw", "count"},
        {"proc.nivcsw", "count"},
    };
    add_dist_names(m, "tshmem.run.enter_us", "us");
    add_dist_names(m, "tshmem.run.exit_us", "us");
    for (const char* op : {"put", "get", "put_static", "barrier_all",
                           "broadcast", "fcollect", "reduce"}) {
      add_dist_names(m, std::string("tshmem.") + op + ".host_ns", "ns");
    }
    add_dist_names(m, "tmc.udn.roundtrip_ns", "ns");
    const MetricTable rest = {
        {"obs.overhead.cpu_ratio", "ratio"},
        {"obs.overhead.wall_ratio", "ratio"},
        {"obs.overhead.steady_cpu_us_per_op", "us"},
        {"obs.overhead.observed_cpu_us_per_op", "us"},
        {"obs.overhead.steady_wall_us_per_op", "us"},
        {"obs.overhead.observed_wall_us_per_op", "us"},
        {"obs.metrics.snapshot_ms", "ms"},
        {"obs.flightrec.snapshot_ms", "ms"},
        {"obs.flightrec.records", "count"},
        {"obs.timeseries.report_ms", "ms"},
        {"svc.calibrate.cold_s", "s"},
        {"svc.calibrate.warm_s", "s"},
        {"apps.cbir.feature_cache_hits", "count"},
        {"apps.cbir.feature_cache_size", "count"},
        {"apps.cbir.feature_cache_hit_ratio", "ratio"},
        {"svc.serve.loop_s", "s"},
        {"svc.serve.host_qps", "1/s"},
        {"svc.cache_hit_ratio", "ratio"},
        {"svc.batch_fill", "count"},
        {"svc.shed", "count"},
        {"trace.wall_s", "s"},
        {"trace.explained_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    // apps and obs are reached only from inside tshmem and svc calls, so
    // they have no spans of their own; their cost shows in obs.overhead.*
    // and svc.calibrate.*.
    for (const char* layer : {"sim", "tmc", "tshmem", "svc", "bench"}) {
      m.emplace_back(std::string("self_s.") + layer, "s");
    }
    return m;
  }();
  return t;
}

/// Sets a catalogued metric; an unknown name is a benchmark bug.
void set_metric(Outcome& o, bool trace, const std::string& name, double v) {
  for (const auto& [n, unit] : trace ? per_layer_table() : end_to_end_table()) {
    if (n == name) {
      o.metrics[name] = Metric{v, unit};
      return;
    }
  }
  throw std::logic_error("perfbench: metric not in the catalogue: " + name);
}

/// Every catalogued metric of the mode appears; layers a workload does not
/// reach read 0.
void fill_missing(Outcome& o, bool trace) {
  for (const auto& [n, unit] : trace ? per_layer_table() : end_to_end_table()) {
    o.metrics.try_emplace(n, Metric{0.0, unit});
  }
}

void set_dist(Outcome& o, const std::string& base, std::vector<double> v) {
  const Dist d = dist_of(std::move(v));
  set_metric(o, true, base + ".count", static_cast<double>(d.count));
  set_metric(o, true, base + ".p50", d.p50);
  set_metric(o, true, base + ".tail", d.tail.value);
  set_metric(o, true, base + ".tail_pct", d.tail.pct);
}

// ===========================================================================
// Host facts
// ===========================================================================

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
  double nvcsw = 0;
  double nivcsw = 0;
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user_s - b.user_s, a.sys_s - b.sys_s, a.minflt - b.minflt,
               a.nvcsw - b.nvcsw, a.nivcsw - b.nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ===========================================================================
// Seeded inputs
// ===========================================================================

constexpr std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fisher-Yates permutation of 0..n-1 drawn from `seed` (own generator, so
/// the order is the same with every standard library).
std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::uint64_t s = mix(seed);
  for (int i = n - 1; i > 0; --i) {
    s = mix(s);
    const auto j =
        static_cast<std::size_t>(s % static_cast<std::uint64_t>(i + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[j]);
  }
  return p;
}

/// The unit order of a run: cycle c visits every catalogue entry once, in
/// an order drawn from (seed, c). Record mode visits them in catalogue
/// order, once.
class UnitOrder {
 public:
  UnitOrder(int entries, std::uint64_t seed, bool record)
      : n_(entries), seed_(seed), record_(record) {
    next_cycle();
  }
  [[nodiscard]] bool done() const { return record_ && cycle_ > 1; }
  /// Next entry; sets `cycle_end` when it completes a cycle.
  int next(bool& cycle_end) {
    const int e = order_[pos_++];
    cycle_end = pos_ == order_.size();
    if (cycle_end) next_cycle();
    return e;
  }

 private:
  void next_cycle() {
    if (record_) {
      order_.resize(static_cast<std::size_t>(n_));
      std::iota(order_.begin(), order_.end(), 0);
    } else {
      order_ = permutation(n_, seed_ * 1000003ULL + cycle_);
    }
    pos_ = 0;
    ++cycle_;
  }
  int n_;
  std::uint64_t seed_;
  bool record_;
  std::uint64_t cycle_ = 0;
  std::vector<int> order_;
  std::size_t pos_ = 0;
};

/// Throughput and CPU over one timed phase. ops_per_s is the median over
/// completed cycles of (cycle ops / cycle wall); a phase too short for a
/// cycle falls back to its mean.
class Meter {
 public:
  void start() {
    t0_ = cycle_t0_ = now_ns();
    u0_ = usage(RUSAGE_SELF);
  }
  void add(std::uint64_t ops) {
    ops_ += ops;
    cycle_ops_ += ops;
  }
  void end_cycle() {
    const std::int64_t t = now_ns();
    if (t > cycle_t0_ && cycle_ops_ > 0) {
      rates_.push_back(static_cast<double>(cycle_ops_) /
                       (static_cast<double>(t - cycle_t0_) * 1e-9));
    }
    cycle_t0_ = t;
    cycle_ops_ = 0;
  }
  void stop() {
    t1_ = now_ns();
    u1_ = usage(RUSAGE_SELF);
  }
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(t1_ - t0_) * 1e-9;
  }
  [[nodiscard]] Usage cpu() const { return u1_ - u0_; }
  [[nodiscard]] double ops_per_s() const {
    if (!rates_.empty()) return median(rates_);
    return wall_s() > 0 ? static_cast<double>(ops_) / wall_s() : 0.0;
  }
  [[nodiscard]] double cpu_us_per_op() const {
    const Usage u = cpu();
    return ops_ > 0 ? (u.user_s + u.sys_s) * 1e6 / static_cast<double>(ops_)
                    : 0.0;
  }

 private:
  std::int64_t t0_ = 0;
  std::int64_t t1_ = 0;
  std::int64_t cycle_t0_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t cycle_ops_ = 0;
  std::vector<double> rates_;
  Usage u0_;
  Usage u1_;
};

/// Records units into the outcome: per-entry digests plus the stream digest
/// over the first `stream_len` units.
class DigestLog {
 public:
  DigestLog(Outcome& o, int stream_len) : o_(o), len_(stream_len) {}
  void add(int entry, std::uint64_t digest, std::uint64_t ops) {
    o_.digests[entry][digest] += ops;
    if (seen_ < len_) {
      stream_.add(static_cast<std::uint64_t>(entry));
      stream_.add(digest);
      if (++seen_ == len_) {
        o_.stream_units = len_;
        o_.stream_digest = stream_.value();
      }
    }
  }

 private:
  Outcome& o_;
  int len_;
  int seen_ = 0;
  Digest stream_;
};

// ===========================================================================
// Runtime::run with host-time marks (traced runs only)
// ===========================================================================

struct RunStats {
  std::size_t count = 0;
  double host_s = 0;
  double overhead_s = 0;  ///< run wall minus the slowest PE's body time
  double caller_minflt = 0;
  std::vector<double> enter_us;  ///< call -> first PE enters the body
  std::vector<double> exit_us;   ///< last PE leaves the body -> return
};

void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load();
  while (v < cur && !a.compare_exchange_weak(cur, v)) {
  }
}
void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load();
  while (v > cur && !a.compare_exchange_weak(cur, v)) {
  }
}

using JobBody = std::function<void(Context&, SpanRef)>;

/// One Runtime::run. Traced, it is a "tshmem.run" span on the caller's
/// track (0) whose children are the PE bodies, and its host-time marks go
/// into `rs`.
void run_job(Runtime& rt, int npes, Tracer* tr, RunStats& rs,
             const JobBody& body) {
  if (tr == nullptr) {
    rt.run(npes, [&](Context& ctx) { body(ctx, SpanRef{}); });
    return;
  }
  std::atomic<std::int64_t> first_enter{INT64_MAX};
  std::atomic<std::int64_t> last_exit{0};
  std::atomic<std::int64_t> slowest{0};
  const double flt0 = usage(RUSAGE_THREAD).minflt;
  const std::int64_t t0 = now_ns();
  {
    Scope run(tr, 0, "tshmem.run");
    const SpanRef ref = run.ref();
    rt.run(npes, [&](Context& ctx) {
      const std::int64_t a = now_ns();
      atomic_min(first_enter, a);
      body(ctx, ref);
      const std::int64_t b = now_ns();
      atomic_max(last_exit, b);
      atomic_max(slowest, b - a);
    });
  }
  const std::int64_t t1 = now_ns();
  ++rs.count;
  rs.host_s += static_cast<double>(t1 - t0) * 1e-9;
  rs.overhead_s += static_cast<double>(t1 - t0 - slowest.load()) * 1e-9;
  rs.caller_minflt += usage(RUSAGE_THREAD).minflt - flt0;
  rs.enter_us.push_back(static_cast<double>(first_enter.load() - t0) * 1e-3);
  rs.exit_us.push_back(static_cast<double>(t1 - last_exit.load()) * 1e-3);
}

/// One timed phase of a workload built on Runtime::run jobs.
struct JobPhase {
  Meter meter;
  RunStats runs;
};

void report_runs(Outcome& o, const RunStats& rs) {
  set_metric(o, true, "tshmem.run.count", static_cast<double>(rs.count));
  set_metric(o, true, "tshmem.run.host_s", rs.host_s);
  set_metric(o, true, "tshmem.run.overhead_s", rs.overhead_s);
  set_metric(o, true, "tshmem.run.caller_minflt",
             rs.count > 0 ? rs.caller_minflt / static_cast<double>(rs.count)
                          : 0.0);
  set_dist(o, "tshmem.run.enter_us", rs.enter_us);
  set_dist(o, "tshmem.run.exit_us", rs.exit_us);
}

void report_proc(Outcome& o, const Usage& u) {
  set_metric(o, true, "proc.minflt", u.minflt);
  set_metric(o, true, "proc.user_s", u.user_s);
  set_metric(o, true, "proc.sys_s", u.sys_s);
  set_metric(o, true, "proc.nvcsw", u.nvcsw);
  set_metric(o, true, "proc.nivcsw", u.nivcsw);
}

/// Per-layer self time, explained share, and per-call host_ns of the spans
/// of one traced phase.
void report_spans(Outcome& o, const Tracer& tr, double traced_wall_s) {
  const SelfTimeReport rep = self_times(tr);
  for (const auto& [layer, ns] : rep.self_by_layer) {
    set_metric(o, true, "self_s." + layer, static_cast<double>(ns) * 1e-9);
  }
  set_metric(o, true, "trace.explained_frac", rep.explained_frac());
  set_metric(o, true, "trace.wall_s", traced_wall_s);
  for (const char* op : {"put", "get", "put_static", "barrier_all",
                         "broadcast", "fcollect", "reduce"}) {
    const std::string name = std::string("tshmem.") + op;
    const auto it = rep.by_name.find(name);
    set_dist(o, name + ".host_ns",
             it == rep.by_name.end() ? std::vector<double>{}
                                     : it->second.durations_ns);
  }
}

/// Empty Device::run and Runtime::run at `npes`: thread spawn and join
/// alone, then with the runtime's job setup and teardown on top.
void report_empty_runs(Outcome& o, Runtime& rt, int npes) {
  constexpr int kReps = 40;
  std::vector<double> dev;
  std::vector<double> run;
  for (int i = 0; i < kReps; ++i) {
    std::int64_t t0 = now_ns();
    rt.device().run(npes, [](tilesim::Tile&) {});
    dev.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    t0 = now_ns();
    rt.run(npes, [](Context&) {});
    run.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  set_metric(o, true, "sim.device.run_empty_us", median(dev));
  set_metric(o, true, "tshmem.run.empty_us", median(run));
}

/// Median host seconds of back-to-back Runtime builds in this process. The
/// first build is untimed: it pays one-off costs such as faulting in the
/// allocator's heap. A plain build is tens of microseconds and is timed
/// 1000 times; the instrumented builds (tens of milliseconds) stop at the
/// budget.
double median_build_s(const tshmem::RuntimeOptions& opts,
                      std::int64_t budget_ns) {
  constexpr std::size_t kMaxBuilds = 1000;
  constexpr std::size_t kMinBuilds = 5;
  auto rt = std::make_unique<Runtime>(tilesim::tile_gx36(), opts);
  std::vector<double> secs;
  const std::int64_t start = now_ns();
  while (secs.size() < kMaxBuilds &&
         (secs.size() < kMinBuilds || now_ns() - start < budget_ns)) {
    rt.reset();
    const std::int64_t t0 = now_ns();
    rt = std::make_unique<Runtime>(tilesim::tile_gx36(), opts);
    secs.push_back(seconds_since(t0));
  }
  return median(secs);
}

/// Host seconds to build a Runtime, the set-up of the job-churn and rma-*
/// workloads: the mean over kProcs fresh child processes of each one's
/// median_build_s. All builds within one process ran at one of two speeds
/// about 1.5x apart, picked per process, so a single process's median, or
/// a median over processes, jumped between runs; the mean over processes
/// averages the two. Call it before the process starts any thread.
double setup_seconds(const tshmem::RuntimeOptions& opts) {
  constexpr int kProcs = 16;
  constexpr std::int64_t kBudgetNs = 125'000'000;
  double sum = 0;
  for (int i = 0; i < kProcs; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("setup: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("setup: fork failed");
    if (pid == 0) {
      close(fds[0]);
      double s = -1;
      try {
        s = median_build_s(opts, kBudgetNs);
      } catch (...) {
      }
      const bool sent = write(fds[1], &s, sizeof(s)) == sizeof(s);
      _exit(sent && s > 0 ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    const bool got = read(fds[0], &s, sizeof(s)) == sizeof(s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("setup: a Runtime build process failed");
    }
    sum += s;
  }
  return sum / kProcs;
}

/// Phase split of a run: untraced only, or untraced then traced halves.
double phase_seconds(const Args& a) {
  return a.trace ? a.seconds / 2.0 : a.seconds;
}

// ===========================================================================
// job-churn: short collective jobs, one Runtime::run each
// ===========================================================================

enum class Coll : int { kPush, kPull, kFcollect, kReduce };
constexpr int kChurnSizes = 14;  // 8 B .. 64 KiB
constexpr std::array<int, 3> kChurnPes = {2, 3, 4};
constexpr int kChurnEntries = 4 * 3 * kChurnSizes;

struct ChurnJob {
  Coll op;
  int npes;
  std::size_t bytes;
};

ChurnJob churn_job(int e) {
  return ChurnJob{static_cast<Coll>(e / (3 * kChurnSizes)),
                  kChurnPes[static_cast<std::size_t>((e / kChurnSizes) % 3)],
                  std::size_t{8} << (e % kChurnSizes)};
}

const char* coll_span(Coll op) {
  switch (op) {
    case Coll::kPush:
    case Coll::kPull:
      return "tshmem.broadcast";
    case Coll::kFcollect:
      return "tshmem.fcollect";
    case Coll::kReduce:
      return "tshmem.reduce";
  }
  return "tshmem.collective";
}

std::uint64_t src_word(std::uint64_t key, int pe, std::size_t w) {
  return mix(key ^ (static_cast<std::uint64_t>(pe) << 56) ^ w);
}
std::int32_t src_int(std::uint64_t key, int pe, std::size_t i) {
  return static_cast<std::int32_t>(src_word(key, pe, i) & 0xffffu) - 0x8000;
}

void fill_src(std::byte* p, const ChurnJob& job, std::uint64_t key, int pe) {
  if (job.op == Coll::kReduce) {
    for (std::size_t i = 0; i < job.bytes / 4; ++i) {
      const std::int32_t v = src_int(key, pe, i);
      std::memcpy(p + i * 4, &v, 4);
    }
    return;
  }
  for (std::size_t w = 0; w < job.bytes / 8; ++w) {
    const std::uint64_t v = src_word(key, pe, w);
    std::memcpy(p + w * 8, &v, 8);
  }
}

bool words_match(const std::byte* p, std::size_t bytes, std::uint64_t key,
                 int pe) {
  for (std::size_t w = 0; w < bytes / 8; ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, p + w * 8, 8);
    if (v != src_word(key, pe, w)) return false;
  }
  return true;
}

/// Host-computed expectation for the collective's result on this PE.
bool churn_result_ok(const std::byte* dst, const ChurnJob& job,
                     std::uint64_t key, int pe, int npes) {
  switch (job.op) {
    case Coll::kPush:
    case Coll::kPull:
      return pe == 0 || words_match(dst, job.bytes, key, 0);
    case Coll::kFcollect:
      for (int j = 0; j < npes; ++j) {
        if (!words_match(dst + static_cast<std::size_t>(j) * job.bytes,
                         job.bytes, key, j)) {
          return false;
        }
      }
      return true;
    case Coll::kReduce:
      for (std::size_t i = 0; i < job.bytes / 4; ++i) {
        std::int32_t want = 0;
        for (int j = 0; j < npes; ++j) want += src_int(key, j, i);
        std::int32_t got = 0;
        std::memcpy(&got, dst + i * 4, 4);
        if (got != want) return false;
      }
      return true;
  }
  return false;
}

/// One job in the bench/collective_bench.hpp shape: a warm-up, a clock
/// reset, then the timed collective. Writes each PE's virtual time.
void churn_body(Context& ctx, const ChurnJob& job, std::uint64_t key,
                Tracer* tr, SpanRef parent, std::vector<ps_t>& dt,
                std::atomic<int>& bad) {
  const int pe = ctx.my_pe();
  const int n = ctx.num_pes();
  const int track = 1 + pe;
  Scope body(tr, track, "bench.pe_body", parent);
  const ActiveSet world = ctx.world();
  const std::size_t dst_bytes =
      job.op == Coll::kFcollect ? static_cast<std::size_t>(n) * job.bytes
                                : job.bytes;
  std::byte* src = nullptr;
  std::byte* dst = nullptr;
  {
    Scope s(tr, track, "tshmem.shmalloc");
    src = static_cast<std::byte*>(ctx.shmalloc(job.bytes));
    dst = static_cast<std::byte*>(ctx.shmalloc(dst_bytes));
  }
  fill_src(src, job, key, pe);
  {
    Scope s(tr, track, "tshmem.barrier_all");
    ctx.barrier_all();
  }
  auto once = [&] {
    Scope s(tr, track, coll_span(job.op));
    switch (job.op) {
      case Coll::kPush:
        ctx.broadcast(dst, src, job.bytes, 0, world, tshmem::BcastAlgo::kPush);
        break;
      case Coll::kPull:
        ctx.broadcast(dst, src, job.bytes, 0, world, tshmem::BcastAlgo::kPull);
        break;
      case Coll::kFcollect:
        ctx.fcollect(dst, src, job.bytes, world);
        break;
      case Coll::kReduce:
        ctx.reduce(reinterpret_cast<int*>(dst),
                   reinterpret_cast<const int*>(src), job.bytes / sizeof(int),
                   tshmem::RedOp::kSum, world);
        break;
    }
  };
  once();  // warm-up (collective sequence numbers, bounce paths)
  {
    Scope s(tr, track, "sim.device.sync_and_reset_clocks");
    ctx.harness_sync_reset();
  }
  const ps_t t0 = ctx.clock().now();
  once();
  dt[static_cast<std::size_t>(pe)] = ctx.clock().now() - t0;
  if (!churn_result_ok(dst, job, key, pe, n)) bad.fetch_add(1);
  {
    Scope s(tr, track, "sim.device.host_sync");
    ctx.harness_sync();
  }
  {
    Scope s(tr, track, "tshmem.shfree");
    ctx.shfree(dst);
    ctx.shfree(src);
  }
}

/// Job order: each block of 12 jobs holds one job of every (collective,
/// PE count) pair, at a size drawn from (seed, block), so blocks cost about
/// the same and are the meter's cycles; every 14 blocks visit each of the
/// 168 catalogue entries once. Record mode stops after those 14 blocks.
class ChurnOrder {
 public:
  static constexpr int kGroups = 4 * 3;  // (collective, PE count) pairs
  ChurnOrder(std::uint64_t seed, bool record) : seed_(seed), record_(record) {}
  [[nodiscard]] bool done() const {
    return record_ && u_ >= static_cast<std::uint64_t>(kChurnEntries);
  }
  int next(bool& cycle_end) {
    const std::uint64_t round = u_ / kChurnEntries;
    const auto block = static_cast<std::size_t>((u_ % kChurnEntries) / kGroups);
    const auto slot = static_cast<std::size_t>(u_ % kGroups);
    ++u_;
    cycle_end = slot + 1 == kGroups;
    const int group =
        permutation(kGroups, mix(seed_ ^ (round << 8) ^ block))[slot];
    const std::uint64_t size_seed =
        mix(seed_ + round) ^ static_cast<std::uint64_t>(group);
    const int size = permutation(kChurnSizes, size_seed)[block];
    return group * kChurnSizes + size;
  }

 private:
  std::uint64_t seed_;
  bool record_;
  std::uint64_t u_ = 0;
};

/// One timed phase. A run's phases continue one unit order, so the first
/// units (the stream digest) are the same in traced and untraced runs.
void churn_phase(Runtime& rt, const Args& a, double seconds, Tracer* tr,
                 ChurnOrder& order, Outcome& o, DigestLog& log,
                 JobPhase& ph) {
  std::vector<ps_t> dt(4);
  std::atomic<int> bad{0};
  Scope timed(tr, 0, "bench.timed");
  ph.meter.start();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (a.record ? !order.done() : now_ns() < deadline) {
    bool cycle_end = false;
    const int e = order.next(cycle_end);
    const ChurnJob job = churn_job(e);
    const std::uint64_t key = mix(a.seed ^ mix(o.attempted));
    std::fill(dt.begin(), dt.end(), ps_t{0});
    bad.store(0);
    bool ok = true;
    try {
      run_job(rt, job.npes, tr, ph.runs, [&](Context& ctx, SpanRef parent) {
        churn_body(ctx, job, key, tr, parent, dt, bad);
      });
      ok = bad.load() == 0;
    } catch (const std::exception&) {
      ok = false;
    }
    Digest d;
    for (int pe = 0; pe < job.npes; ++pe) {
      d.add(static_cast<std::uint64_t>(dt[static_cast<std::size_t>(pe)]));
    }
    log.add(e, d.value(), 1);
    ++o.attempted;
    if (!ok) ++o.failed;
    ph.meter.add(1);
    if (cycle_end) ph.meter.end_cycle();
  }
  ph.meter.stop();
}

Outcome job_churn(const Args& a) {
  // glibc raises its mmap threshold the first time a large mmapped block is
  // freed, after which the 8 MiB per-PE arenas of Runtime::run may or may
  // not come from the heap, depending on the order of earlier allocations,
  // so the seed would pick between two page-fault regimes. Pinning the
  // default threshold keeps every arena an mmap, as in the figure benches
  // (README.md, "Host-allocator pinning"). The other workloads run one job
  // or none per unit and keep glibc's dynamic threshold.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Outcome o;
  o.catalogue = "job-churn";
  o.npes = {kChurnPes.begin(), kChurnPes.end()};
  DigestLog log(o, 16);
  const double setup_s = a.trace ? 0.0 : setup_seconds({});
  auto rt = std::make_unique<Runtime>(tilesim::tile_gx36(),
                                      tshmem::RuntimeOptions{});
  ChurnOrder order(a.seed, a.record);
  JobPhase plain;
  churn_phase(*rt, a, phase_seconds(a), nullptr, order, o, log, plain);
  if (!a.trace) {
    set_metric(o, false, "ops_per_s", plain.meter.ops_per_s());
    set_metric(o, false, "cpu_us_per_op", plain.meter.cpu_us_per_op());
    set_metric(o, false, "setup_s", setup_s);
    set_metric(o, false, "peak_rss_mb", peak_rss_mb());
    return o;
  }
  Tracer tr(1 + 4);
  JobPhase traced;
  churn_phase(*rt, a, phase_seconds(a), &tr, order, o, log, traced);
  report_runs(o, traced.runs);
  report_proc(o, plain.meter.cpu());
  report_spans(o, tr, traced.meter.wall_s());
  set_metric(o, true, "trace.overhead_frac",
             plain.meter.ops_per_s() / traced.meter.ops_per_s() - 1.0);
  report_empty_runs(o, *rt, kChurnPes.back());
  return o;
}

// ===========================================================================
// rma-steady / rma-observed: one long 4-PE job of seeded RMA rounds
// ===========================================================================

constexpr int kRmaPes = 4;
constexpr int kRmaRecipes = 48;
// The op shares follow the repository's own applications. Run with
// RuntimeOptions::metrics on gx36 over their six tile counts, fig13 (2D
// FFT) and fig14 (CBIR) issue 6,291,801 gets and 64,512 puts. The gets are
// 6,291,456 one-element `g` reads in the FFT's final transpose plus 345
// CBIR gathers; the puts are the FFT's row segments, 1024*P puts of
// 8 KiB / P at P tiles. Neither calls a static put
// (shmem.interrupt.services is 0) or the UDN directly. So a round is 97
// one-word gets beside one put, the apps' 97.5:1, and one static put and
// one UDN ping-pong keep the paths the apps never call measured.
constexpr int kRmaGets = 97;
constexpr int kRmaOps = kRmaGets + 3;  // + put, static put, UDN ping-pong
constexpr std::size_t kPutBytes = std::size_t{8} << 10;  // largest put
constexpr std::size_t kStaticBytes = std::size_t{4} << 10;
constexpr std::uint64_t kRmaCatalogueSeed = 0x7e11a2013ULL;

enum class RmaKind : int { kPut, kGet, kPutStatic, kUdn };

struct RmaOp {
  RmaKind kind;
  std::size_t bytes;  ///< multiple of 8
  int peer_off;       ///< target PE = (pe + peer_off) % 4
  int get_index;      ///< kGet: which word of the owner's get source
};

/// A round: every PE issues the same op list (SPMD), each towards its own
/// peer. The static put's peer offset is the same on every PE, so each
/// target tile services one requester and the interrupt timeline is
/// host-independent.
struct RmaRecipe {
  std::vector<RmaOp> ops;
  [[nodiscard]] std::uint64_t calls_per_pe() const {
    std::uint64_t c = 2;  // opening and closing barrier_all
    for (const RmaOp& op : ops) c += op.kind == RmaKind::kUdn ? 2 : 1;
    return c;
  }
};

/// The fixed recipe catalogue: the same for every workload seed, so a
/// recipe's virtual-time digest is a constant the reference table holds.
const std::vector<RmaRecipe>& rma_recipes() {
  static const std::vector<RmaRecipe> recipes = [] {
    std::vector<RmaRecipe> out;
    std::uint64_t s = kRmaCatalogueSeed;
    auto draw = [&](std::uint64_t n) {
      s = mix(s);
      return s % n;
    };
    // The FFT's put sizes: 8 KiB / P, drawn with weight P.
    auto fft_put_bytes = [&] {
      std::uint64_t u = draw(63);  // 1 + 2 + 4 + 8 + 16 + 32
      std::size_t tiles = 1;
      while (u >= tiles) {
        u -= tiles;
        tiles *= 2;
      }
      return kPutBytes / tiles;
    };
    for (int r = 0; r < kRmaRecipes; ++r) {
      RmaRecipe rec;
      for (int g = 0; g < kRmaGets; ++g) {
        rec.ops.push_back(
            RmaOp{RmaKind::kGet, 8, 1 + static_cast<int>(draw(3)), g});
      }
      // The other three ops go to seeded positions among the gets.
      const std::size_t put_bytes = fft_put_bytes();
      const std::size_t static_bytes = std::min(fft_put_bytes(), kStaticBytes);
      for (const RmaOp& op :
           {RmaOp{RmaKind::kPut, put_bytes, 1 + static_cast<int>(draw(3)), -1},
            RmaOp{RmaKind::kPutStatic, static_bytes,
                  1 + static_cast<int>(draw(3)), -1},
            RmaOp{RmaKind::kUdn, 8, 0, -1}}) {
        const auto at = static_cast<std::ptrdiff_t>(draw(rec.ops.size() + 1));
        rec.ops.insert(rec.ops.begin() + at, op);
      }
      out.push_back(std::move(rec));
    }
    return out;
  }();
  return recipes;
}

/// Expected content of PE `pe`'s source slot `slot` in round `round`: a
/// per-(seed, PE, slot) base pattern, overwritten at six round-dependent
/// positions by round stamps. A transfer that skipped, lagged a round, or
/// shifted its data fails the check.
struct SlotExpect {
  static constexpr int kStamps = 6;
  std::uint64_t seed;
  int pe;
  int slot;
  std::size_t words;
  std::array<std::size_t, kStamps> pos{};
  std::array<std::uint64_t, kStamps> val{};

  SlotExpect(std::uint64_t seed_, int pe_, int slot_, std::uint64_t round,
             std::size_t words_)
      : seed(seed_), pe(pe_), slot(slot_), words(words_) {
    const std::uint64_t k =
        mix(seed ^ mix(round * 64 + static_cast<std::uint64_t>(slot)));
    for (int j = 0; j < kStamps; ++j) {
      const std::uint64_t h = mix(k + static_cast<std::uint64_t>(j));
      pos[static_cast<std::size_t>(j)] =
          j == 0 ? 0 : j == 1 ? words - 1 : static_cast<std::size_t>(h % words);
      val[static_cast<std::size_t>(j)] =
          mix(h ^ (static_cast<std::uint64_t>(pe) << 48));
    }
  }
  [[nodiscard]] std::uint64_t base(std::size_t w) const {
    return mix(seed ^ (static_cast<std::uint64_t>(pe) << 56) ^
               (static_cast<std::uint64_t>(slot) << 40) ^ w);
  }
  [[nodiscard]] std::uint64_t at(std::size_t w) const {
    for (int j = kStamps - 1; j >= 0; --j) {
      if (pos[static_cast<std::size_t>(j)] == w) {
        return val[static_cast<std::size_t>(j)];
      }
    }
    return base(w);
  }
  /// Small transfers are checked whole; larger ones at every stamp plus
  /// eight round-dependent base positions.
  [[nodiscard]] bool check(const std::uint64_t* p) const {
    if (words <= 64) {
      for (std::size_t w = 0; w < words; ++w) {
        if (p[w] != at(w)) return false;
      }
      return true;
    }
    for (std::size_t j = 0; j < kStamps; ++j) {
      if (p[pos[j]] != at(pos[j])) return false;
    }
    for (std::uint64_t j = 0; j < 8; ++j) {
      const auto w = static_cast<std::size_t>(mix(val[0] + j) % words);
      if (p[w] != at(w)) return false;
    }
    return true;
  }
};

/// Key of PE `pe`'s get-source words in round `round`; word g holds
/// mix(key + g), so a get that read a stale round or the wrong word fails.
std::uint64_t get_key(std::uint64_t seed, int pe, std::uint64_t round) {
  return mix(seed ^ (static_cast<std::uint64_t>(pe) << 56) ^ mix(round));
}

/// State shared by the PEs of the rma job. PE 0 writes the round fields
/// between two host_syncs; the others read them after the second.
struct RmaShared {
  const Args* args = nullptr;
  Tracer* tr = nullptr;
  std::int64_t deadline_ns = 0;
  UnitOrder* order = nullptr;
  Meter* meter = nullptr;
  DigestLog* log = nullptr;
  Outcome* out = nullptr;
  bool stop = false;
  int entry = -1;  ///< recipe of the current round
  bool cycle_end = false;
  std::uint64_t round = 0;
  std::array<std::array<ps_t, 2>, kRmaPes> vt{};
  std::atomic<std::uint64_t> bad{0};
  std::array<std::vector<double>, kRmaPes> udn_rtt_ns;
};

/// PE 0, between rounds: digest and account the round just finished, then
/// pick the next one (or stop) and reset the virtual clocks.
void rma_round_boundary(Context& ctx, RmaShared& sh) {
  if (sh.entry >= 0) {
    Digest d;
    d.add(static_cast<std::uint64_t>(sh.entry));
    for (const auto& v : sh.vt) {
      d.add(static_cast<std::uint64_t>(v[0]));
      d.add(static_cast<std::uint64_t>(v[1]));
    }
    const std::uint64_t ops =
        rma_recipes()[static_cast<std::size_t>(sh.entry)].calls_per_pe() *
        kRmaPes;
    sh.log->add(sh.entry, d.value(), ops);
    sh.out->attempted += ops;
    sh.meter->add(ops);
    if (sh.cycle_end) sh.meter->end_cycle();
  }
  const bool over = sh.args->record ? sh.order->done()
                                    : now_ns() >= sh.deadline_ns;
  if (over) {
    sh.stop = true;
    return;
  }
  sh.entry = sh.order->next(sh.cycle_end);
  ++sh.round;
  Scope s(sh.tr, 1, "sim.device.reset_clocks");
  ctx.tile().device().reset_clocks();
}

void rma_body(Context& ctx, RmaShared& sh, SpanRef parent) {
  const int pe = ctx.my_pe();
  const int track = 1 + pe;
  Tracer* tr = sh.tr;
  Scope body(tr, track, "bench.pe_body", parent);
  const std::uint64_t seed = sh.args->seed;
  // Source slots: 0 feeds the put, 1 the static put.
  constexpr int kPutSlot = 0;
  constexpr int kStaticSlot = 1;
  constexpr std::size_t kSlotWords = kPutBytes / 8;
  constexpr std::size_t kStaticWords = kStaticBytes / 8;

  std::uint64_t* src = nullptr;
  std::uint64_t* rx = nullptr;
  std::uint64_t* gsrc = nullptr;
  {
    Scope s(tr, track, "tshmem.shmalloc");
    src = ctx.shmalloc_n<std::uint64_t>(2 * kSlotWords);
    rx = ctx.shmalloc_n<std::uint64_t>(kRmaPes * kSlotWords);
    gsrc = ctx.shmalloc_n<std::uint64_t>(kRmaGets);
  }
  std::uint64_t* srx = ctx.static_sym<std::uint64_t>(
      "perfbench.static_rx", kRmaPes * kStaticWords);
  // Base pattern once; each round then moves only its stamps.
  for (int slot : {kPutSlot, kStaticSlot}) {
    const SlotExpect e(seed, pe, slot, 0, kSlotWords);
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      src[static_cast<std::size_t>(slot) * kSlotWords + w] = e.base(w);
    }
  }
  std::array<std::array<std::size_t, SlotExpect::kStamps>, 2> stamped{};
  tmc::UdnFabric& udn = ctx.runtime().udn();
  auto sync = [&] {
    Scope s(tr, track, "sim.device.host_sync");
    ctx.harness_sync();
  };
  auto stamp = [&](int slot, std::uint64_t round, std::size_t words) {
    std::uint64_t* p = src + static_cast<std::size_t>(slot) * kSlotWords;
    auto& prev = stamped[static_cast<std::size_t>(slot)];
    const SlotExpect e(seed, pe, slot, round, words);
    for (std::size_t w : prev) p[w] = e.base(w);
    for (std::size_t j = 0; j < SlotExpect::kStamps; ++j) {
      p[e.pos[j]] = e.at(e.pos[j]);
      prev[j] = e.pos[j];
    }
  };

  for (;;) {
    sync();
    if (pe == 0) rma_round_boundary(ctx, sh);
    sync();
    if (sh.stop) break;
    const RmaRecipe& rec = rma_recipes()[static_cast<std::size_t>(sh.entry)];
    const std::uint64_t round = sh.round;
    std::uint64_t bad = 0;

    const std::uint64_t own_key = get_key(seed, pe, round);
    for (int g = 0; g < kRmaGets; ++g) {
      gsrc[g] = mix(own_key + static_cast<std::uint64_t>(g));
    }
    for (const RmaOp& op : rec.ops) {
      if (op.kind == RmaKind::kPut) stamp(kPutSlot, round, op.bytes / 8);
      if (op.kind == RmaKind::kPutStatic) {
        stamp(kStaticSlot, round, op.bytes / 8);
      }
    }
    std::array<std::uint64_t, kRmaPes> peer_key{};
    for (int p = 0; p < kRmaPes; ++p) {
      peer_key[static_cast<std::size_t>(p)] = get_key(seed, p, round);
    }
    {
      Scope s(tr, track, "tshmem.barrier_all");
      ctx.barrier_all();
    }
    for (std::size_t i = 0; i < rec.ops.size(); ++i) {
      const RmaOp& op = rec.ops[i];
      const int peer = (pe + op.peer_off) % kRmaPes;
      switch (op.kind) {
        case RmaKind::kGet: {
          std::uint64_t v = 0;
          {
            Scope s(tr, track, "tshmem.get");
            v = ctx.g(gsrc + op.get_index, peer);
          }
          if (v != mix(peer_key[static_cast<std::size_t>(peer)] +
                       static_cast<std::uint64_t>(op.get_index))) {
            ++bad;
          }
          break;
        }
        case RmaKind::kPut: {
          Scope s(tr, track, "tshmem.put");
          ctx.put(rx + static_cast<std::size_t>(pe) * kSlotWords,
                  src + kPutSlot * kSlotWords, op.bytes, peer);
          break;
        }
        case RmaKind::kPutStatic: {
          Scope s(tr, track, "tshmem.put_static");
          ctx.put(srx + static_cast<std::size_t>(pe) * kStaticWords,
                  src + kStaticSlot * kSlotWords, op.bytes, peer);
          break;
        }
        case RmaKind::kUdn: {
          // Direct UDN ping-pong on application queue 0 between PE pairs
          // (0,1) and (2,3); the even PE serves first.
          const std::uint64_t word = mix(seed ^ round ^ (i << 8) ^
                                         static_cast<std::uint64_t>(pe & ~1));
          if (pe % 2 == 0) {
            const std::int64_t t0 = tr != nullptr ? now_ns() : 0;
            {
              Scope s(tr, track, "tmc.udn.send1");
              udn.send1(ctx.tile(), pe + 1, tmc::kUdnQueue0, word);
            }
            tmc::UdnPacket pkt;
            {
              Scope s(tr, track, "tmc.udn.recv");
              pkt = udn.recv(ctx.tile(), tmc::kUdnQueue0);
            }
            if (tr != nullptr) {
              sh.udn_rtt_ns[static_cast<std::size_t>(pe)].push_back(
                  static_cast<double>(now_ns() - t0));
            }
            if (pkt.payload.size() != 1 || pkt.payload[0] != word + 1) ++bad;
          } else {
            tmc::UdnPacket pkt;
            {
              Scope s(tr, track, "tmc.udn.recv");
              pkt = udn.recv(ctx.tile(), tmc::kUdnQueue0);
            }
            if (pkt.payload.size() != 1 || pkt.payload[0] != word) ++bad;
            Scope s(tr, track, "tmc.udn.send1");
            udn.send1(ctx.tile(), pe - 1, tmc::kUdnQueue0, word + 1);
          }
          break;
        }
      }
    }
    const ps_t vt_ops = ctx.clock().now();
    {
      Scope s(tr, track, "tshmem.barrier_all");
      ctx.barrier_all();
    }
    sh.vt[static_cast<std::size_t>(pe)] = {vt_ops, ctx.clock().now()};
    for (const RmaOp& op : rec.ops) {
      const std::size_t words = op.bytes / 8;
      const int from = (pe - op.peer_off + kRmaPes) % kRmaPes;
      if (op.kind == RmaKind::kPut &&
          !SlotExpect(seed, from, kPutSlot, round, words)
               .check(rx + static_cast<std::size_t>(from) * kSlotWords)) {
        ++bad;
      }
      if (op.kind == RmaKind::kPutStatic &&
          !SlotExpect(seed, from, kStaticSlot, round, words)
               .check(srx + static_cast<std::size_t>(from) * kStaticWords)) {
        ++bad;
      }
    }
    if (bad != 0) sh.bad.fetch_add(bad);
  }
  {
    Scope s(tr, track, "tshmem.shfree");
    ctx.shfree(gsrc);
    ctx.shfree(rx);
    ctx.shfree(src);
  }
}

void rma_phase(Runtime& rt, const Args& a, double seconds, Tracer* tr,
               UnitOrder& order, Outcome& o, DigestLog& log, JobPhase& ph) {
  RmaShared sh;
  sh.args = &a;
  sh.tr = tr;
  sh.order = &order;
  sh.meter = &ph.meter;
  sh.log = &log;
  sh.out = &o;
  const std::uint64_t attempted0 = o.attempted;
  Scope timed(tr, 0, "bench.timed");
  ph.meter.start();
  sh.deadline_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  try {
    run_job(rt, kRmaPes, tr, ph.runs, [&](Context& ctx, SpanRef parent) {
      rma_body(ctx, sh, parent);
    });
    o.failed += sh.bad.load();
  } catch (const std::exception&) {
    // A job that throws fails every operation it issued.
    o.attempted = std::max(o.attempted, attempted0 + 1);
    o.failed += o.attempted - attempted0;
  }
  ph.meter.stop();
  if (tr != nullptr) {
    std::vector<double> rtt;
    for (const auto& v : sh.udn_rtt_ns) {
      rtt.insert(rtt.end(), v.begin(), v.end());
    }
    set_dist(o, "tmc.udn.roundtrip_ns", rtt);
  }
}

tshmem::RuntimeOptions observed_options() {
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  opts.flightrec = true;
  opts.timeseries_window_ps = 1'000'000'000;  // 1 ms windows
  return opts;
}

/// Host cost of reading out each obs consumer after the job.
void report_obs_readout(Outcome& o, Runtime& rt) {
  std::int64_t t0 = now_ns();
  const obs::MetricsSnapshot snap = rt.metrics();
  set_metric(o, true, "obs.metrics.snapshot_ms", seconds_since(t0) * 1e3);
  if (obs::FlightRecorder* fr = rt.flightrec(); fr != nullptr) {
    t0 = now_ns();
    const std::vector<obs::FrEvent> merged = fr->merged();
    set_metric(o, true, "obs.flightrec.snapshot_ms", seconds_since(t0) * 1e3);
    double records = 0;
    for (int pe = 0; pe < fr->npes(); ++pe) {
      records += static_cast<double>(fr->total_recorded(pe));
    }
    set_metric(o, true, "obs.flightrec.records", records);
  }
  if (obs::TimeSeries* ts = rt.timeseries(); ts != nullptr) {
    t0 = now_ns();
    const obs::TimeSeriesReport rep = ts->report();
    set_metric(o, true, "obs.timeseries.report_ms", seconds_since(t0) * 1e3);
  }
}

Outcome rma(const Args& a, bool observed) {
  Outcome o;
  o.catalogue = "rma";  // rma-observed must match rma-steady's digests
  o.npes = {kRmaPes};
  DigestLog log(o, 16);
  const tshmem::RuntimeOptions opts =
      observed ? observed_options() : tshmem::RuntimeOptions{};
  const double setup_s = a.trace ? 0.0 : setup_seconds(opts);
  auto rt = std::make_unique<Runtime>(tilesim::tile_gx36(), opts);
  UnitOrder order(kRmaRecipes, a.seed, a.record);
  if (!a.trace) {
    JobPhase plain;
    rma_phase(*rt, a, a.seconds, nullptr, order, o, log, plain);
    set_metric(o, false, "ops_per_s", plain.meter.ops_per_s());
    set_metric(o, false, "cpu_us_per_op", plain.meter.cpu_us_per_op());
    set_metric(o, false, "setup_s", setup_s);
    set_metric(o, false, "peak_rss_mb", peak_rss_mb());
    return o;
  }
  // Traced run: rma-observed also measures an rma-steady phase on a plain
  // runtime, so the obs overhead has both bases from one process.
  const double part = observed ? a.seconds / 3.0 : a.seconds / 2.0;
  JobPhase plain;
  rma_phase(*rt, a, part, nullptr, order, o, log, plain);
  if (observed) {
    auto base_rt = std::make_unique<Runtime>(tilesim::tile_gx36(),
                                             tshmem::RuntimeOptions{});
    UnitOrder base_order(kRmaRecipes, a.seed, a.record);
    JobPhase base;
    rma_phase(*base_rt, a, part, nullptr, base_order, o, log, base);
    const double steady_wall = 1e6 / base.meter.ops_per_s();
    const double observed_wall = 1e6 / plain.meter.ops_per_s();
    set_metric(o, true, "obs.overhead.steady_cpu_us_per_op",
               base.meter.cpu_us_per_op());
    set_metric(o, true, "obs.overhead.observed_cpu_us_per_op",
               plain.meter.cpu_us_per_op());
    set_metric(o, true, "obs.overhead.steady_wall_us_per_op", steady_wall);
    set_metric(o, true, "obs.overhead.observed_wall_us_per_op", observed_wall);
    set_metric(o, true, "obs.overhead.cpu_ratio",
               plain.meter.cpu_us_per_op() / base.meter.cpu_us_per_op());
    set_metric(o, true, "obs.overhead.wall_ratio", observed_wall / steady_wall);
  }
  Tracer tr(1 + kRmaPes);
  JobPhase traced;
  rma_phase(*rt, a, part, &tr, order, o, log, traced);
  report_runs(o, traced.runs);
  report_proc(o, plain.meter.cpu());
  report_spans(o, tr, traced.meter.wall_s());
  set_metric(o, true, "trace.overhead_frac",
             plain.meter.ops_per_s() / traced.meter.ops_per_s() - 1.0);
  if (observed) report_obs_readout(o, *rt);
  report_empty_runs(o, *rt, kRmaPes);
  return o;
}

// ===========================================================================
// serve-replay: svc::Service replays of recorded traffic traces
// ===========================================================================

constexpr int kServeShards = 2;
constexpr int kServePes = 4;
constexpr int kServeTraces = 4;
constexpr std::uint64_t kServeQueries = 4'000'000;
constexpr std::uint64_t kServeTraceSeed = 0x5e7e0000ULL;

svc::ServiceConfig serve_config(int trace) {
  svc::ServiceConfig cfg;  // ext_serve's defaults
  cfg.pes_per_shard = kServePes;
  cfg.db.images = 5500;
  cfg.load.queries = kServeQueries;
  cfg.load.start_qps = 10'000.0;
  cfg.load.end_qps = 150'000.0;
  cfg.load.zipf_s = 0.9;
  cfg.load.key_space = cfg.db.images;
  cfg.load.seed = kServeTraceSeed + static_cast<std::uint64_t>(trace);
  return cfg;
}

tshmem::ClusterOptions serve_cluster_options() {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = std::size_t{64} << 20;  // as ext_serve
  return opts;
}

std::uint64_t report_digest(const svc::ServiceReport& r) {
  Digest d;
  for (const svc::ShardCalibration& c : r.calibration) {
    d.add(static_cast<std::uint64_t>(c.build_ps));
    d.add(static_cast<std::uint64_t>(c.setup_ps));
    d.add(static_cast<std::uint64_t>(c.per_query_ps));
  }
  for (const svc::ShardStats& s : r.shard_stats) {
    d.add(s.batches);
    d.add(s.queries);
    d.add(static_cast<std::uint64_t>(s.busy_ps));
  }
  for (std::uint64_t v : {r.offered, r.completed, r.cache_hits, r.shed,
                          r.deadline_dropped, r.hung, r.latency.p50,
                          r.latency.p99, r.latency.p999, r.max_latency_ps}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(r.duration_ps));
  return d.value();
}

/// Sum over shards of (batches, queries).
std::pair<double, double> batch_totals(const svc::ServiceReport& r) {
  double batches = 0;
  double queries = 0;
  for (const svc::ShardStats& s : r.shard_stats) {
    batches += static_cast<double>(s.batches);
    queries += static_cast<double>(s.queries);
  }
  return {batches, queries};
}

struct ServePhase {
  Meter meter;
  double run_s = 0;   ///< Service::run total
  double warm_s = 0;  ///< warm calibrations timed beside it (traced only)
  std::vector<double> warm;
  double completed = 0;
  double cache_hits = 0;
  double shed = 0;
  double batches = 0;
  double batched_queries = 0;
};

void serve_phase(tshmem::Cluster& cluster, const Args& a, double seconds,
                 Tracer* tr, UnitOrder& order, Outcome& o, DigestLog& log,
                 ServePhase& ph) {
  Scope timed(tr, 0, "bench.timed");
  ph.meter.start();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (a.record ? !order.done() : now_ns() < deadline) {
    bool cycle_end = false;
    const int e = order.next(cycle_end);
    const svc::ServiceConfig cfg = serve_config(e);
    bool ok = true;
    try {
      svc::Service service(cluster, cfg);
      if (tr != nullptr) {
        // Service::run recalibrates every shard on a warm feature cache;
        // timing that alone splits calibration from the serve loop.
        const std::int64_t t0 = now_ns();
        Scope s(tr, 0, "svc.calibrate_replica");
        for (int shard = 0; shard < kServeShards; ++shard) {
          (void)service.calibrate_replica(shard, 0);
        }
        ph.warm.push_back(seconds_since(t0));
        ph.warm_s += ph.warm.back();
      }
      const std::int64_t t0 = now_ns();
      svc::ServiceReport rep;
      {
        Scope s(tr, 0, "svc.service.run");
        rep = service.run();
      }
      ph.run_s += seconds_since(t0);
      ok = rep.hung == 0 &&
           rep.offered == rep.completed + rep.shed + rep.deadline_dropped &&
           rep.offered == cfg.load.queries;
      log.add(e, report_digest(rep), rep.offered);
      o.attempted += rep.offered;
      if (!ok) o.failed += rep.offered;
      ph.meter.add(rep.completed);
      ph.completed += static_cast<double>(rep.completed);
      ph.cache_hits += static_cast<double>(rep.cache_hits);
      ph.shed += static_cast<double>(rep.shed);
      const auto [batches, queries] = batch_totals(rep);
      ph.batches += batches;
      ph.batched_queries += queries;
    } catch (const std::exception&) {
      o.attempted += cfg.load.queries;
      o.failed += cfg.load.queries;
    }
    // Units are seconds long, so each is its own cycle: the median over
    // units rides out the host's slow spells.
    ph.meter.end_cycle();
  }
  ph.meter.stop();
}

Outcome serve_replay(const Args& a) {
  Outcome o;
  o.catalogue = "serve-replay";
  o.npes = {kServePes};
  DigestLog log(o, 3);
  // Set-up: the cluster plus a cold calibration of every shard (feature
  // extraction for the whole database), several times for a median.
  constexpr int kSetupReps = 3;
  std::vector<double> setup;
  std::vector<double> cold;
  std::unique_ptr<tshmem::Cluster> cluster;
  for (int i = 0; i < kSetupReps; ++i) {
    cluster.reset();
    apps::cbir::FeatureCache::shared().clear();
    const std::int64_t t0 = now_ns();
    cluster = std::make_unique<tshmem::Cluster>(
        tilesim::tile_gx36(), serve_cluster_options(), kServeShards);
    svc::Service service(*cluster, serve_config(0));
    const std::int64_t t1 = now_ns();
    for (int shard = 0; shard < kServeShards; ++shard) {
      (void)service.calibrate_replica(shard, 0);
    }
    cold.push_back(seconds_since(t1));
    setup.push_back(seconds_since(t0));
  }
  const auto& fc = apps::cbir::FeatureCache::shared();
  const double hits0 = static_cast<double>(fc.hits());
  const double size0 = static_cast<double>(fc.size());

  UnitOrder order(kServeTraces, a.seed, a.record);
  ServePhase plain;
  serve_phase(*cluster, a, phase_seconds(a), nullptr, order, o, log, plain);
  if (!a.trace) {
    set_metric(o, false, "ops_per_s", plain.meter.ops_per_s());
    set_metric(o, false, "cpu_us_per_op", plain.meter.cpu_us_per_op());
    set_metric(o, false, "setup_s", median(setup));
    set_metric(o, false, "peak_rss_mb", peak_rss_mb());
    return o;
  }
  Tracer tr(1);
  ServePhase traced;
  serve_phase(*cluster, a, phase_seconds(a), &tr, order, o, log, traced);
  report_proc(o, plain.meter.cpu());
  report_spans(o, tr, traced.meter.wall_s());
  // The traced phase also times warm calibrations outside Service::run,
  // so compare the Service::run time per query alone.
  set_metric(o, true, "trace.overhead_frac",
             (traced.run_s / traced.completed) /
                     (plain.run_s / plain.completed) -
                 1.0);
  set_metric(o, true, "svc.calibrate.cold_s", median(cold));
  set_metric(o, true, "svc.calibrate.warm_s", median(traced.warm));
  const double hits = static_cast<double>(fc.hits()) - hits0;
  const double misses = static_cast<double>(fc.size()) - size0;
  set_metric(o, true, "apps.cbir.feature_cache_hits", hits);
  set_metric(o, true, "apps.cbir.feature_cache_size",
             static_cast<double>(fc.size()));
  set_metric(o, true, "apps.cbir.feature_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double loop_s = traced.run_s - traced.warm_s;
  set_metric(o, true, "svc.serve.loop_s", loop_s);
  set_metric(o, true, "svc.serve.host_qps",
             loop_s > 0 ? traced.completed / loop_s : 0.0);
  set_metric(o, true, "svc.cache_hit_ratio",
             traced.completed > 0 ? traced.cache_hits / traced.completed : 0.0);
  set_metric(o, true, "svc.batch_fill",
             traced.batches > 0 ? traced.batched_queries / traced.batches
                                : 0.0);
  set_metric(o, true, "svc.shed", traced.shed);
  report_empty_runs(o, cluster->runtime(0), kServePes);
  return o;
}

}  // namespace

std::vector<int> workload_npes(const std::string& workload) {
  if (workload == "job-churn") return {kChurnPes.begin(), kChurnPes.end()};
  if (workload == "rma-steady" || workload == "rma-observed") {
    return {kRmaPes};
  }
  if (workload == "serve-replay") return {kServePes};
  throw std::invalid_argument("unknown workload: " + workload);
}

const std::vector<std::pair<std::string, std::string>>& metric_catalogue(
    bool trace) {
  return trace ? per_layer_table() : end_to_end_table();
}

Outcome run_workload(const Args& args) {
  Outcome o;
  if (args.workload == "job-churn") {
    o = job_churn(args);
  } else if (args.workload == "rma-steady") {
    o = rma(args, false);
  } else if (args.workload == "rma-observed") {
    o = rma(args, true);
  } else if (args.workload == "serve-replay") {
    o = serve_replay(args);
  } else {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  fill_missing(o, args.trace);
  return o;
}

}  // namespace perfbench
