// Figure 4 + Table III — average one-way UDN latencies between tile pairs
// at varying distances (neighbors / side-to-side / corners) on the 6x6
// effective test area of both devices.
//
// Methodology matches §III-C: timing on the sender tile as the halved
// average of a 1-word send and a 1-word acknowledgment; virtual-CPU numbers
// index the 6x6 area (identity on the Gx36; row-remapped on the Pro64).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"
#include "tmc/udn.hpp"
#include "util/stats.hpp"

namespace {

struct Case {
  const char* type;
  const char* direction;
  int sender_virtual;
  int receiver_virtual;
};

// The exact sender/receiver virtual CPU pairs of Table III.
constexpr Case kCases[] = {
    {"Neighbors", "left", 14, 13},      {"Neighbors", "right", 14, 15},
    {"Neighbors", "up", 14, 8},         {"Neighbors", "down", 14, 20},
    {"Neighbors", "left", 28, 27},      {"Neighbors", "right", 28, 29},
    {"Neighbors", "up", 28, 22},        {"Neighbors", "down", 28, 34},
    {"Side-to-Side", "right", 6, 11},   {"Side-to-Side", "left", 11, 6},
    {"Side-to-Side", "down", 1, 31},    {"Side-to-Side", "up", 31, 1},
    {"Side-to-Side", "right", 23, 18},  {"Side-to-Side", "left", 18, 23},
    {"Side-to-Side", "down", 33, 3},    {"Side-to-Side", "up", 3, 33},
    {"Corners", "down-right", 0, 35},   {"Corners", "up-left", 35, 0},
    {"Corners", "down-left", 5, 30},    {"Corners", "up-right", 30, 5},
};

constexpr int kAreaWidth = 6;

}  // namespace

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv"});
  bench::Telemetry telemetry(cli);
  // Table III sets the two devices side by side, so --device selects
  // nothing here; it is accepted as every figure bench accepts it.
  (void)cli.has("device");
  cli.reject_unknown();
  tshmem_util::print_banner(std::cout, "Figure 4 / Table III",
                            "One-way latencies on UDN (6x6 test area)");

  tshmem_util::Table table(
      {"type", "direction", "sender", "receiver", "gx36 (ns)", "pro64 (ns)"});
  std::vector<bench::PaperCheck> checks;

  // Measure all cases on one device; returns ns per case.
  auto measure = [&](const tilesim::DeviceConfig& cfg) {
    tilesim::Device device(cfg);
    telemetry.attach(device);
    tmc::UdnFabric udn(device);
    std::vector<double> ns(std::size(kCases), 0.0);
    // Map virtual CPU numbers of the 6x6 area onto the physical mesh.
    auto phys = [&](int virt) {
      return tilesim::virtual_to_physical(virt, kAreaWidth, cfg.mesh_width);
    };
    // Run with all tiles active; only the case participants act per case.
    device.run(cfg.tile_count(), [&](tilesim::Tile& tile) {
      for (std::size_t i = 0; i < std::size(kCases); ++i) {
        const int s = phys(kCases[i].sender_virtual);
        const int r = phys(kCases[i].receiver_virtual);
        if (tile.id() == s) {
          const auto t0 = tile.clock().now();
          udn.send1(tile, r, 0, 0xbeef);
          (void)udn.recv(tile, 0);  // acknowledgment
          const auto rtt = tile.clock().now() - t0;
          ns[i] = tshmem_util::ps_to_ns(rtt) / 2.0;
        } else if (tile.id() == r) {
          (void)udn.recv(tile, 0);
          udn.send1(tile, s, 0, 0xcafe);
        }
        device.host_sync();
      }
    });
    telemetry.collect(device, std::string(cfg.short_name));
    return ns;
  };

  const auto gx = measure(tilesim::tile_gx36());
  const auto pro = measure(tilesim::tile_pro64());

  tshmem_util::OnlineStats gx_by_type[3], pro_by_type[3];
  auto type_index = [](const std::string& t) {
    return t == "Neighbors" ? 0 : t == "Side-to-Side" ? 1 : 2;
  };
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    table.add_row({kCases[i].type, kCases[i].direction,
                   tshmem_util::Table::integer(kCases[i].sender_virtual),
                   tshmem_util::Table::integer(kCases[i].receiver_virtual),
                   tshmem_util::Table::num(gx[i], 0),
                   tshmem_util::Table::num(pro[i], 0)});
    gx_by_type[type_index(kCases[i].type)].add(gx[i]);
    pro_by_type[type_index(kCases[i].type)].add(pro[i]);
  }
  bench::emit(cli, table);

  std::cout << "\nFigure 4 averages (one-way latency, ns):\n";
  tshmem_util::Table avg({"distance", "gx36 (ns)", "pro64 (ns)"});
  const char* kTypes[] = {"neighbors", "side-to-side", "corners"};
  for (int t = 0; t < 3; ++t) {
    avg.add_row({kTypes[t], tshmem_util::Table::num(gx_by_type[t].mean(), 1),
                 tshmem_util::Table::num(pro_by_type[t].mean(), 1)});
  }
  bench::emit(cli, avg);

  checks.push_back({"gx36 neighbors", gx_by_type[0].mean(), 21.5, "ns"});
  checks.push_back({"gx36 side-to-side", gx_by_type[1].mean(), 25.5, "ns"});
  checks.push_back({"gx36 corners", gx_by_type[2].mean(), 31.5, "ns"});
  checks.push_back({"pro64 neighbors", pro_by_type[0].mean(), 18.5, "ns"});
  checks.push_back({"pro64 side-to-side", pro_by_type[1].mean(), 24.5, "ns"});
  checks.push_back({"pro64 corners", pro_by_type[2].mean(), 33.0, "ns"});

  // §III-C effective data throughput per distance class (Mbps).
  std::cout << "\nEffective data throughput (Mbps, minimum payload):\n";
  tshmem_util::Table thr({"distance", "gx36 (Mbps)", "pro64 (Mbps)"});
  const double paper_gx[] = {2900, 2500, 2000};
  const double paper_pro[] = {1700, 1300, 980};
  for (int t = 0; t < 3; ++t) {
    const double g = 8.0 * 8.0 / gx_by_type[t].mean() * 1000.0;
    const double p = 4.0 * 8.0 / pro_by_type[t].mean() * 1000.0;
    thr.add_row({kTypes[t], tshmem_util::Table::num(g, 0),
                 tshmem_util::Table::num(p, 0)});
    checks.push_back({std::string("gx36 throughput ") + kTypes[t], g,
                      paper_gx[t], "Mbps"});
    checks.push_back({std::string("pro64 throughput ") + kTypes[t], p,
                      paper_pro[t], "Mbps"});
  }
  bench::emit(cli, thr);

  bench::print_checks("Figure 4 / Table III", checks);
  telemetry.write();
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
