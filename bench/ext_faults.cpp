// Extension — deterministic fault-injection campaign (docs/ROBUSTNESS.md).
//
// Not a paper figure: the TSHMEM paper benchmarks healthy hardware. This
// bench drives the fault engine end to end and prints a fully
// deterministic report — the injected-event log, per-site injection
// counts, recovery counters, and final per-PE virtual clocks — so CI can
// run the same (seed, plan) twice and require bit-identical output
// (tools/ci.sh fault-campaign stage). The bench also replays the campaign
// in-process and checks the replay reproduces the first run exactly.
//
// Flags: --seed N   campaign seed (default 1; ci.sh sweeps several)
//        --pes N    PEs to run (default 4)
//        --csv      CSV table output
//        --hang-demo       instead of the campaign, deliberately hang PE 0
//                          under a tile_stall plan until the host-time
//                          watchdog trips; with --blackbox-json the runtime
//                          leaves a tshmem.blackbox.v1 post-mortem there
//                          (the tools/ci.sh triage smoke feeds it to
//                          tools/triage.py)
//        --watchdog-ms N   hang-demo watchdog (default 2000; the
//                          TSHMEM_WATCHDOG_MS env var still overrides)
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/fault.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using tilesim::FaultEvent;
using tilesim::FaultPlan;
using tshmem::Context;

// Every fault site at a rate that recovers (bounded retries, synchronous
// NBI fallback, capped heap denial) rather than killing the run.
FaultPlan campaign_plan(std::uint64_t seed) {
  FaultPlan plan = FaultPlan::parse(
      "udn_drop=0.05,udn_corrupt=0.03,udn_delay=0.10:20000,"
      "dma_stall=0.20:50000,dma_fail=0.15,tile_stall=0.10:100000,"
      "cmem_fail=0.20,heap_cap=262144");
  plan.seed = seed;
  return plan;
}

// Touches every hardened layer: UDN puts and barriers, NBI traffic with
// quiet, interrupt-serviced static transfers (bounce buffers -> cmem
// maps), heap pressure against the injected cap, and collective frees.
void campaign_workload(Context& ctx) {
  const int npes = ctx.num_pes();
  int* dyn = ctx.shmalloc_n<int>(512);
  int* stat = ctx.static_sym<int>("ext_faults_stat", 64);
  for (int i = 0; i < 64; ++i) stat[i] = ctx.my_pe();
  ctx.barrier_all();
  for (int round = 0; round < 6; ++round) {
    const int peer = (ctx.my_pe() + 1 + round) % npes;
    std::vector<int> src(512, ctx.my_pe() * 1000 + round);
    ctx.put(dyn, src.data(), 512 * sizeof(int), peer);
    ctx.barrier_all();
    ctx.put_nbi(dyn, src.data(), 256 * sizeof(int), peer);
    ctx.quiet();
    // Interrupt/bounce path. Source and destination halves of the static
    // object are disjoint: inside one barrier phase every PE reads its own
    // lower half while a peer writes its upper half, so overlapping them
    // would be a genuine SHMEM-level race (tshmem-check flags it).
    ctx.put(stat + 32, stat, 32 * sizeof(int), peer);
    ctx.barrier_all();
    // Heap pressure: a big symmetric request the injected cap denies on
    // every PE at once (a denial is collective, like the allocation).
    void* big = ctx.shmalloc(1 << 20);
    if (big != nullptr) ctx.shfree(big);
    ctx.barrier_all();
  }
  ctx.shfree(dyn);
}

struct CampaignResult {
  std::vector<FaultEvent> events;
  obs::MetricsSnapshot metrics;
  std::vector<tilesim::ps_t> final_clocks;
};

// `telemetry` (nullable) gates profiling/tracing: the first campaign run
// carries it, the in-process replay runs bare so the identity check stays
// a comparison between a telemetry-on and telemetry-off run.
CampaignResult run_campaign(const FaultPlan& plan, int npes,
                            bench::Telemetry* telemetry) {
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = plan;
  if (telemetry != nullptr) telemetry->configure(opts);
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  if (telemetry != nullptr) telemetry->attach(rt);
  CampaignResult r;
  r.final_clocks.assign(static_cast<std::size_t>(npes), 0);
  rt.run(npes, [&](Context& ctx) {
    campaign_workload(ctx);
    r.final_clocks[static_cast<std::size_t>(ctx.my_pe())] =
        ctx.clock().now();
  });
  if (telemetry != nullptr) telemetry->collect(rt);
  if (rt.fault_engine() != nullptr) r.events = rt.fault_engine()->events();
  r.metrics = rt.metrics();
  return r;
}

std::uint64_t counter_total(const obs::MetricsSnapshot& m,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : m.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

// --hang-demo: a genuine host-time hang (the campaign's tile_stall site is
// virtual-time only and can never trip the wall-clock watchdog). PE 0
// blocks in shmem_wait_until on a flag no peer ever sets; the watchdog
// throws Error(kWatchdogTimeout), and with --blackbox-json the aborting
// runtime dumps its flight-recorder post-mortem there on the way out.
int run_hang_demo(const tshmem_util::Cli& cli, std::uint64_t seed,
                  int npes) {
  bench::Telemetry telemetry(cli);
  tshmem::RuntimeOptions opts;
  opts.watchdog_ms = static_cast<int>(cli.get_int("watchdog-ms", 2000));
  cli.reject_unknown();
  FaultPlan plan = FaultPlan::parse("tile_stall=0.5:200000");
  plan.seed = seed;
  opts.fault_plan = plan;
  telemetry.configure(opts);
  std::cout << "hang demo: PE 0 waits on a flag no peer ever sets under "
               "plan " << plan.describe() << "\n";
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  telemetry.attach(rt);
  try {
    rt.run(npes, [&](Context& ctx) {
      long* flag = ctx.shmalloc_n<long>(1);
      *flag = 0;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.wait_until(flag, tshmem::Cmp::kNe, 0L);  // never satisfied
      }
    });
  } catch (const tshmem::Error& e) {
    std::cout << "hang demo: runtime aborted as expected: " << e.what()
              << "\n";
    return 0;
  }
  std::cerr << "hang demo: watchdog did not trip\n";
  return 1;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv", "hang-demo"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int npes = static_cast<int>(cli.get_int("pes", 4));
  if (cli.get_flag("hang-demo")) {
    return run_hang_demo(cli, seed, npes);
  }
  bench::Telemetry telemetry(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Fault campaign",
      "deterministic fault injection + recovery on TILE-Gx36 (seed " +
          std::to_string(seed) + ", " + std::to_string(npes) + " PEs)");

  const FaultPlan plan = campaign_plan(seed);
  std::cout << "plan: " << plan.describe() << "\n\n";

  const CampaignResult first = run_campaign(plan, npes, &telemetry);
  const CampaignResult replay = run_campaign(plan, npes, nullptr);
  const bool identical = first.events == replay.events &&
                         first.metrics == replay.metrics &&
                         first.final_clocks == replay.final_clocks;

  // Per-site injection counts (diff-stable ordering: site enum order).
  tshmem_util::Table sites({"site", "injected"});
  std::vector<std::uint64_t> per_site(tilesim::kFaultSiteCount, 0);
  for (const FaultEvent& e : first.events) {
    ++per_site[static_cast<std::size_t>(e.site)];
  }
  for (int s = 0; s < tilesim::kFaultSiteCount; ++s) {
    sites.add_row({tilesim::fault_site_name(
                       static_cast<tilesim::FaultSite>(s)),
                   std::to_string(per_site[static_cast<std::size_t>(s)])});
  }
  bench::emit(cli, sites);

  // Recovery counters (summed over PEs).
  tshmem_util::Table recovery({"counter", "total"});
  for (const char* name :
       {"recovery.udn.retries", "recovery.udn.backoff_ps",
        "recovery.cmem.map_retries", "recovery.nbi.sync_fallbacks"}) {
    recovery.add_row({name, std::to_string(counter_total(first.metrics,
                                                         name))});
  }
  bench::emit(cli, recovery);

  // The injected-event log and final clocks: the bit-diffable campaign
  // record ci.sh compares across repeated invocations.
  std::cout << "\ninjected events (site tile seq vt_ps):\n";
  for (const FaultEvent& e : first.events) {
    std::cout << "  " << tilesim::fault_site_name(e.site) << " " << e.tile
              << " " << e.seq << " " << e.vt_ps << "\n";
  }
  std::cout << "final clocks (ps):";
  for (const tilesim::ps_t c : first.final_clocks) std::cout << " " << c;
  std::cout << "\n";

  std::vector<bench::PaperCheck> checks;
  checks.push_back({"in-process replay identical (1 = yes)",
                    identical ? 1.0 : 0.0, 1.0, "x"});
  checks.push_back({"faults injected (>0 expected)",
                    first.events.empty() ? 0.0 : 1.0, 1.0, "x"});
  const double retries =
      static_cast<double>(counter_total(first.metrics,
                                        "recovery.udn.retries"));
  const double drops = static_cast<double>(per_site[0] + per_site[1]);
  checks.push_back({"udn retries cover drops+corrupts",
                    drops > 0 ? retries / drops : 1.0, 1.0, "x"});
  bench::print_checks("Fault campaign", checks);
  telemetry.write();
  return identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
