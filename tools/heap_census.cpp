// Live heap bytes per device of a perfbench workload, split by request size.
//
// A counting operator new keeps a 16 B header with each request's size and
// tracks live blocks by request size. The program builds a workload
// (default fleet_serial), runs it, and prints the live heap bytes and
// blocks per device and the largest request sizes. Arguments: workload,
// devices and simulated seconds, then optionally gateway_every (0 = one
// gateway) and 0/1 overrides of rules, telemetry and per-node metrics.
// Over-aligned new is not counted.
//
// Build it from the repository root against perfbench's static library
// and workload table (the g++ command is one line, wrapped here):
//
//   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build/perfbench -j4
//   g++ -std=c++20 -O2 -Isrc -Iperfbench tools/heap_census.cpp perfbench/workloads.cpp
//       .bench_build/perfbench/libwile_sim_all.a -pthread -o .bench_build/heap_census
//   .bench_build/heap_census telemetry_rules 3000 600
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "workloads.hpp"

namespace {
constexpr std::size_t kSizes = 1 << 16;  // the last slot pools every larger request
std::array<std::atomic<long>, kSizes> g_live{};  // live blocks per request size
std::atomic<long> g_big_bytes{0};
void note(std::size_t n, long d) {
  g_live[std::min(n, kSizes - 1)].fetch_add(d, std::memory_order_relaxed);
  if (n >= kSizes - 1) g_big_bytes.fetch_add(d * static_cast<long>(n), std::memory_order_relaxed);
}
std::vector<long> snapshot() {
  std::vector<long> v(kSizes);
  for (std::size_t i = 0; i < kSizes; ++i) v[i] = g_live[i].load();
  return v;
}
}  // namespace

void* operator new(std::size_t n) {
  auto* p = static_cast<std::size_t*>(std::malloc(n + 16));  // 16 B header keeps alignment
  if (p == nullptr) throw std::bad_alloc();
  *p = n;
  note(n, 1);
  return p + 2;
}
void operator delete(void* q) noexcept {
  if (q == nullptr) return;
  auto* p = static_cast<std::size_t*>(q) - 2;
  note(*p, -1);
  std::free(p);
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete[](void* q) noexcept { operator delete(q); }
void operator delete(void* q, std::size_t) noexcept { operator delete(q); }
void operator delete[](void* q, std::size_t) noexcept { operator delete(q); }

int main(int argc, char** argv) {
  const perfbench::Workload* named = perfbench::find_workload(argc > 1 ? argv[1] : "fleet_serial");
  if (named == nullptr) return 2;
  perfbench::Workload w = *named;
  if (argc > 2) w.devices = std::atoi(argv[2]);
  if (argc > 3) w.sim_seconds = std::atoi(argv[3]);
  // Optional overrides: gateway_every, rules, telemetry, per-node metrics.
  if (argc > 4) w.gateway_every = std::atoi(argv[4]);
  if (argc > 5) w.rules = std::atoi(argv[5]) != 0;
  if (argc > 6) w.telemetry = std::atoi(argv[6]) != 0;
  const std::vector<long> before = snapshot();
  const long big_before = g_big_bytes.load();
  auto builder = perfbench::make_builder(w, 1, nullptr);
  if (argc > 7) builder.per_node_metrics(std::atoi(argv[7]) != 0);
  auto scenario = builder.build();
  scenario->run_until(wile::TimePoint{wile::seconds(w.sim_seconds)});
  const std::vector<long> after = snapshot();

  const double per = 1.0 / w.devices;
  struct Row { std::size_t size; long blocks; double bytes; };
  std::vector<Row> rows;
  const double big = static_cast<double>(g_big_bytes.load() - big_before);
  double total = big;
  long blocks = 0;
  for (std::size_t n = 0; n < kSizes; ++n) {
    const long live = after[n] - before[n];
    blocks += live;
    if (live == 0 || n + 1 == kSizes) continue;
    rows.push_back({n, live, static_cast<double>(live) * static_cast<double>(n)});
    total += rows.back().bytes;
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.bytes > b.bytes; });
  std::printf("%s, %d devices, %d s: %.1f live heap bytes and %.2f blocks per device"
              " (requests of %zu B or more, pooled: %.1f B per device)\n",
              w.name, w.devices, w.sim_seconds, total * per, blocks * per, kSizes - 1, big * per);
  std::printf("%10s %16s %16s\n", "size_B", "blocks/device", "bytes/device");
  for (std::size_t i = 0; i < rows.size() && i < 15; ++i) {
    std::printf("%10zu %16.3f %16.1f\n", rows[i].size, rows[i].blocks * per, rows[i].bytes * per);
  }
}
