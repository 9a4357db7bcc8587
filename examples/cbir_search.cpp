// CBIR demo (the paper's §V-B case study as a standalone application):
// builds a synthetic image database, distributes it across PEs, runs one
// autocorrelogram retrieval query, and prints the top matches with the
// parallel/serial phase split behind Fig 14's speedup ceiling.
//
//   ./cbir_search --device gx36 --pes 16 --images 2000 --query 123
#include <cstdio>

#include "apps/cbir.hpp"
#include "tshmem/runtime.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv);
  const auto& device =
      cli.get_as("device", "gx36", tilesim::device_by_name);
  const int npes = static_cast<int>(cli.get_int("pes", 8));
  apps::cbir::Params params;
  params.images = static_cast<int>(cli.get_int("images", 1000));
  params.query_index = static_cast<int>(cli.get_int("query", 123));
  params.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x7351));
  cli.reject_unknown();
  std::printf("CBIR over %d synthetic %dx%d images, %d PEs on %s\n",
              params.images, params.width, params.height, npes,
              device.name.c_str());

  tshmem::RuntimeOptions opts;
  opts.heap_per_pe =
      static_cast<std::size_t>(params.images) * 128 * 128 + (16 << 20);
  tshmem::Runtime rt(device, opts);
  apps::cbir::QueryResult result;
  rt.run(npes, [&](tshmem::Context& ctx) {
    auto r = apps::cbir::run_query(ctx, params);
    if (ctx.my_pe() == 0) result = std::move(r);
  });

  std::printf("query image: #%d\n", params.query_index % params.images);
  std::printf("best match:  #%d (distance %.4f)%s\n", result.best_image,
              result.best_distance,
              result.best_image == params.query_index % params.images
                  ? "  <- query retrieved itself"
                  : "");
  std::printf("top matches:");
  for (const int idx : result.top(5)) std::printf(" #%d", idx);
  std::printf("\n");
  std::printf("virtual device time: %.3f ms total = %.3f ms parallel extract "
              "+ %.3f ms serial gather/merge/re-rank\n",
              tshmem_util::ps_to_ms(result.elapsed_ps),
              tshmem_util::ps_to_ms(result.extract_ps),
              tshmem_util::ps_to_ms(result.rank_ps));
  return result.best_image == params.query_index % params.images ? 0 : 1;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
