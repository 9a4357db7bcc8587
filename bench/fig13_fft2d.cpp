// Figure 13 — 2D-FFT on 1024x1024 complex floats: execution time and
// speedup versus tile count, on both devices.
//
// Reproduces: Gx speedup leveling off around 5 (computational serialization
// of the final transpose); execution times near 0.23 s (Gx36) / 0.62 s
// (Pro64) at 32 tiles; the roughly order-of-magnitude serial-time gap from
// the Pro's software floating point.
#include <iostream>
#include <vector>

#include "apps/fft.hpp"
#include "bench_common.hpp"
#include "tshmem/runtime.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1024));
  bench::Telemetry telemetry(cli);
  const auto devices = bench::devices_from_cli(cli);
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 13",
      "2D-FFT on " + std::to_string(n) + "x" + std::to_string(n) +
          " complex floats");

  tshmem_util::Table table({"tiles", "device", "exec (s)", "speedup",
                            "row fft (s)", "transpose (s)", "col fft (s)",
                            "final transpose (s)"});
  std::vector<bench::PaperCheck> checks;
  const std::vector<int> tile_counts{1, 2, 4, 8, 16, 32};

  for (const auto* cfg : devices) {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 2 * n * n * sizeof(apps::cfloat) + (4 << 20);
    telemetry.configure(opts);
    tshmem::Runtime rt(*cfg, opts);
    telemetry.attach(rt);
    double serial_s = 0.0;
    double at32_s = 0.0;
    for (const int tiles : tile_counts) {
      apps::Fft2dTiming t{};
      rt.run(tiles, [&](tshmem::Context& ctx) {
        const auto r = apps::fft2d_run(ctx, n, /*seed=*/2013);
        if (ctx.my_pe() == 0) t = r.timing;
      });
      const double secs = tshmem_util::ps_to_sec(t.total_ps);
      if (tiles == 1) serial_s = secs;
      if (tiles == 32) at32_s = secs;
      table.add_row(
          {tshmem_util::Table::integer(tiles), cfg->short_name,
           tshmem_util::Table::num(secs, 3),
           tshmem_util::Table::num(serial_s / secs, 2),
           tshmem_util::Table::num(tshmem_util::ps_to_sec(t.row_fft_ps), 3),
           tshmem_util::Table::num(tshmem_util::ps_to_sec(t.transpose_ps), 3),
           tshmem_util::Table::num(tshmem_util::ps_to_sec(t.col_fft_ps), 3),
           tshmem_util::Table::num(
               tshmem_util::ps_to_sec(t.final_transpose_ps), 3)});
    }
    if (n == 1024) {
      const bool gx = cfg->short_name == "gx36";
      checks.push_back({std::string(cfg->short_name) + " exec @32 tiles",
                        at32_s, gx ? 0.23 : 0.62, "s"});
      checks.push_back({std::string(cfg->short_name) + " speedup @32",
                        serial_s / at32_s, gx ? 5.0 : 16.0, "x"});
    }
    telemetry.collect(rt);
  }

  bench::emit(cli, table);
  bench::print_checks("Figure 13", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
