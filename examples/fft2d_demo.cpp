// 2D-FFT demo (the paper's §V-A case study as a standalone application):
// runs the row-distributed parallel FFT with its distributed transpose on
// a chosen device and PE count, verifies the result against the serial
// reference, and reports the per-phase virtual-time breakdown.
//
//   ./fft2d_demo --device pro64 --pes 16 --n 256
//
// Pass --trace <file.json> to write the per-tile virtual-time timeline
// (op spans, waits, DMA transfers) as Chrome trace-event JSON; open it at
// https://ui.perfetto.dev.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "apps/fft.hpp"
#include "obs/exporters.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"no-verify"});
  const auto& device =
      cli.get_as("device", "gx36", tilesim::device_by_name);
  const int npes = static_cast<int>(cli.get_int("pes", 8));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 256));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const bool verify = !cli.get_flag("no-verify");
  const std::string trace_path = cli.get_string("trace", "");
  cli.reject_unknown();
  std::printf("2D-FFT %zux%zu complex floats, %d PEs on %s\n", n, n, npes,
              device.name.c_str());

  tshmem::RuntimeOptions opts;
  opts.heap_per_pe = 2 * n * n * sizeof(apps::cfloat) + (4 << 20);
  tshmem::Runtime rt(device, opts);
  obs::TraceLog trace(rt.device());
  if (!trace_path.empty()) rt.device().attach_probe(&trace);
  apps::Fft2dResult result;
  rt.run(npes, [&](tshmem::Context& ctx) {
    auto r = apps::fft2d_run(ctx, n, seed);
    if (ctx.my_pe() == 0) result = std::move(r);
  });
  if (!trace_path.empty()) {
    rt.device().detach_probe(&trace);
    const obs::TraceTrack track = trace.track(0, device.short_name);
    std::ofstream out(trace_path);
    obs::write_chrome_trace_json(out, {track});
    std::printf("wrote %zu trace events to %s\n", track.events.size(),
                trace_path.c_str());
  }

  const auto& t = result.timing;
  std::printf("phase breakdown (virtual device time):\n");
  std::printf("  row FFTs          %10.3f ms\n", tshmem_util::ps_to_ms(t.row_fft_ps));
  std::printf("  distributed transpose %6.3f ms\n",
              tshmem_util::ps_to_ms(t.transpose_ps));
  std::printf("  column FFTs       %10.3f ms\n", tshmem_util::ps_to_ms(t.col_fft_ps));
  std::printf("  final transpose   %10.3f ms   <- serialized on PE 0 (Fig 13)\n",
              tshmem_util::ps_to_ms(t.final_transpose_ps));
  std::printf("  total             %10.3f ms\n", tshmem_util::ps_to_ms(t.total_ps));

  if (verify) {
    std::vector<apps::cfloat> reference(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        reference[r * n + c] = apps::fft2d_input(r, c, seed);
      }
    }
    apps::fft2d_reference(reference, n);
    double max_err = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      max_err =
          std::max<double>(max_err, std::abs(result.output[i] - reference[i]));
    }
    std::printf("verification vs serial reference: max |err| = %.3g %s\n",
                max_err, max_err < 1e-2 ? "(OK)" : "(FAILED)");
    return max_err < 1e-2 ? 0 : 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
