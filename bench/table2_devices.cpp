// Table II — architectural comparison of the TILE-Gx8036 and TILEPro64.
// Prints the simulated devices' configured characteristics side by side.
#include <iostream>

#include "bench_common.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Table II",
                            "Arch. comparison for TILE-Gx8036 and TILEPro64");
  const auto& gx = tilesim::tile_gx36();
  const auto& pro = tilesim::tile_pro64();
  tshmem_util::Table t({"characteristic", gx.name, pro.name});
  auto yes_no = [](bool b) { return b ? std::string("yes") : std::string("-"); };
  using T = tshmem_util::Table;
  t.add_row({"tiles", T::integer(gx.tile_count()), T::integer(pro.tile_count())});
  t.add_row({"mesh", "6 x 6", "8 x 8"});
  t.add_row({"core word width (bits)", T::integer(gx.word_bytes * 8),
             T::integer(pro.word_bytes * 8)});
  t.add_row({"clock (GHz)", T::num(gx.clock_ghz, 1), T::num(pro.clock_ghz, 1)});
  t.add_row({"L1i per tile (kB)", T::integer(static_cast<long long>(gx.l1i_bytes / 1024)),
             T::integer(static_cast<long long>(pro.l1i_bytes / 1024))});
  t.add_row({"L1d per tile (kB)", T::integer(static_cast<long long>(gx.l1d_bytes / 1024)),
             T::integer(static_cast<long long>(pro.l1d_bytes / 1024))});
  t.add_row({"L2 per tile (kB)", T::integer(static_cast<long long>(gx.l2_bytes / 1024)),
             T::integer(static_cast<long long>(pro.l2_bytes / 1024))});
  t.add_row({"mesh interconnect (Tbps)", T::num(gx.mesh_bw_tbps, 0),
             T::num(pro.mesh_bw_tbps, 0)});
  t.add_row({"memory bandwidth (Gbps)", T::num(gx.mem_bw_gbps, 0),
             T::num(pro.mem_bw_gbps, 0)});
  t.add_row({"DDR controllers", T::integer(gx.ddr_controllers),
             T::integer(pro.ddr_controllers)});
  t.add_row({"power (W)", T::num(gx.power_watts_lo, 0) + " to " +
                              T::num(gx.power_watts_hi, 0),
             T::num(pro.power_watts_lo, 0) + " to " +
                 T::num(pro.power_watts_hi, 0)});
  t.add_row({"mPIPE packet engine", yes_no(gx.has_mpipe), yes_no(pro.has_mpipe)});
  t.add_row({"MiCA crypto/compression", yes_no(gx.has_mica), yes_no(pro.has_mica)});
  t.add_row({"UDN interrupts", yes_no(gx.supports_udn_interrupts),
             yes_no(pro.supports_udn_interrupts)});
  bench::emit(cli, t);
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
