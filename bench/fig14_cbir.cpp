// Figure 14 — CBIR (color autocorrelogram feature extraction + retrieval)
// over 8-bit 128x128 images: execution time and speedup versus tile count,
// on both devices.
//
// The paper's database holds 22,000 images; the default here is quarter
// scale (5,500) to keep the harness fast — speedup is independent of the
// database size, and the table reports both the measured execution time and
// its extrapolation to the full 22,000-image database. Pass --full for the
// paper-scale run.
//
// Reproduces: near-linear speedup to 16 tiles; 25x (Gx36) / 27x (Pro64) at
// 32 tiles, the Pro scaling slightly better because its slower integer
// cores shrink the relative weight of the serial gather/merge/re-rank tail.
#include <iostream>
#include <vector>

#include "apps/cbir.hpp"
#include "bench_common.hpp"
#include "tshmem/runtime.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv", "full"});
  apps::cbir::Params params;
  params.images = cli.get_flag("full")
                      ? 22000
                      : static_cast<int>(cli.get_int("images", 5500));
  const double scale = 22000.0 / params.images;
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 14",
      "CBIR on " + std::to_string(params.images) + " 8-bit images of 128x128" +
          (params.images == 22000
               ? ""
               : " (paper scale 22,000; exec extrapolated x" +
                     tshmem_util::Table::num(scale, 1) + ")"));

  tshmem_util::Table table({"tiles", "device", "exec (s)", "exec @22k (s)",
                            "speedup", "extract (s)", "rank (s)"});
  std::vector<bench::PaperCheck> checks;
  const std::vector<int> tile_counts{1, 2, 4, 8, 16, 32};

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe =
        static_cast<std::size_t>(params.images) * 128 * 128 + (64 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    double serial_s = 0.0;
    double at16_s = 0.0, at32_s = 0.0;
    for (const int tiles : tile_counts) {
      apps::cbir::QueryResult r;
      rt.run(tiles, [&](tshmem::Context& ctx) {
        const auto out = apps::cbir::run_query(ctx, params);
        if (ctx.my_pe() == 0) r = out;
      });
      const double secs = tshmem_util::ps_to_sec(r.elapsed_ps);
      if (tiles == 1) serial_s = secs;
      if (tiles == 16) at16_s = secs;
      if (tiles == 32) at32_s = secs;
      table.add_row(
          {tshmem_util::Table::integer(tiles), cfg->short_name,
           tshmem_util::Table::num(secs, 3),
           tshmem_util::Table::num(secs * scale, 3),
           tshmem_util::Table::num(serial_s / secs, 2),
           tshmem_util::Table::num(tshmem_util::ps_to_sec(r.extract_ps), 3),
           tshmem_util::Table::num(tshmem_util::ps_to_sec(r.rank_ps), 3)});
    }
    const bool gx = cfg->short_name == "gx36";
    checks.push_back({std::string(cfg->short_name) + " speedup @32",
                      serial_s / at32_s, gx ? 25.0 : 27.0, "x"});
    checks.push_back({std::string(cfg->short_name) + " speedup @16 (linear)",
                      serial_s / at16_s, 15.0, "x"});
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 14", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
