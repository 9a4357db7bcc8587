// Figure 7 — effective bandwidth of TSHMEM put/get transfers on TILE-Gx36
// for every combination of dynamic and static symmetric variables as
// target/source (legend notation: target-source).
//
// Reproduces: dynamic-static puts and static-dynamic gets match their
// dynamic-dynamic counterparts (the local tile services them directly);
// static-target puts / static-source gets pay the UDN-interrupt redirection
// ("minor performance degradation"); static-static pays the interrupt plus
// the temporary shared bounce buffer ("major performance penalty").
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::Context;

enum class Kind { kDynamic, kStatic };

struct Combo {
  const char* name;  // target-source
  Kind target;
  Kind source;
};

constexpr Combo kCombos[] = {
    {"dynamic-dynamic", Kind::kDynamic, Kind::kDynamic},
    {"dynamic-static", Kind::kDynamic, Kind::kStatic},
    {"static-dynamic", Kind::kStatic, Kind::kDynamic},
    {"static-static", Kind::kStatic, Kind::kStatic},
};

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  const auto max_bytes =
      static_cast<std::size_t>(cli.get_int("max-bytes", 4 << 20));
  bench::Telemetry telemetry(cli);
  // Fig 7 is a TILE-Gx36 measurement, so --device selects nothing here; it
  // is accepted as every figure bench accepts it.
  (void)cli.has("device");
  cli.reject_unknown();
  tshmem_util::print_banner(
      std::cout, "Figure 7",
      "TSHMEM put/get bandwidth with static symmetric variables (TILE-Gx36)");

  tshmem::RuntimeOptions opts;
  opts.heap_per_pe = 2 * max_bytes + (1 << 20);
  opts.private_per_pe = 2 * max_bytes + (1 << 20);
  telemetry.configure(opts);
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  telemetry.attach(rt);

  tshmem_util::Table table({"size", "op", "combo", "MB/s"});
  std::vector<bench::PaperCheck> checks;
  double dd_put_64k = 0, ds_put_64k = 0, sd_put_64k = 0, ss_put_64k = 0;

  for (const bool is_put : {true, false}) {
    for (const Combo& combo : kCombos) {
      for (const std::size_t size : bench::pow2_sizes(64, max_bytes)) {
        double mbps = 0.0;
        rt.run(2, [&](Context& ctx) {
          auto make = [&](Kind kind, const char* tag) -> std::byte* {
            if (kind == Kind::kStatic) {
              return ctx.static_sym<std::byte>(std::string("fig07_") + tag,
                                               max_bytes);
            }
            return static_cast<std::byte*>(ctx.shmalloc(max_bytes));
          };
          std::byte* target = make(combo.target, "t");
          std::byte* source = make(combo.source, "s");
          ctx.barrier_all();
          if (ctx.my_pe() == 0) {
            auto run_once = [&] {
              if (is_put) {
                ctx.put(target, source, size, 1);
              } else {
                ctx.get(target, source, size, 1);
              }
            };
            run_once();  // warm
            const auto t0 = ctx.clock().now();
            run_once();
            mbps = tshmem_util::bandwidth_mbps(size, ctx.clock().now() - t0);
          }
          ctx.barrier_all();
          if (combo.source == Kind::kDynamic) ctx.shfree(source);
          if (combo.target == Kind::kDynamic) ctx.shfree(target);
        });
        table.add_row({tshmem_util::Table::bytes(size),
                       is_put ? "put" : "get", combo.name,
                       tshmem_util::Table::num(mbps, 1)});
        if (is_put && size == 64 * 1024) {
          if (combo.target == Kind::kDynamic && combo.source == Kind::kDynamic)
            dd_put_64k = mbps;
          if (combo.target == Kind::kDynamic && combo.source == Kind::kStatic)
            ds_put_64k = mbps;
          if (combo.target == Kind::kStatic && combo.source == Kind::kDynamic)
            sd_put_64k = mbps;
          if (combo.target == Kind::kStatic && combo.source == Kind::kStatic)
            ss_put_64k = mbps;
        }
      }
    }
  }

  bench::emit(cli, table);
  // Fig 7's qualitative relations at a representative size.
  checks.push_back(
      {"put dyn-static / dyn-dyn @64kB (same)", ds_put_64k / dd_put_64k, 1.0,
       "x"});
  checks.push_back({"put static-dyn / dyn-dyn @64kB (minor penalty)",
                    sd_put_64k / dd_put_64k, 0.9, "x"});
  checks.push_back({"put static-static / dyn-dyn @64kB (major penalty)",
                    ss_put_64k / dd_put_64k, 0.5, "x"});
  bench::print_checks("Figure 7", checks);
  telemetry.collect(rt);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
