// Experiments E1/E2 — Figure 3 of the paper: the current consumed by
// WiFi (a) and Wi-LE (b) for transmitting one frame, sampled at the
// Keysight 34465A's 50 kS/s.
//
// Prints, for each trace: the phase bands with their time spans and mean
// currents (the coloured regions of the figure), a decimated time/current
// series (CSV) suitable for plotting, and summary statistics compared to
// the figure's visual features.
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>

#include "power/trace_recorder.hpp"
#include "wile/paper_rig.hpp"

using namespace wile;

namespace {

void print_phases(const power::PowerTimeline& tl, TimePoint from, TimePoint to) {
  // Merge consecutive segments by phase.
  struct Band {
    power::PhaseId phase;
    TimePoint start;
    TimePoint end;
    Joules energy;
  };
  std::vector<Band> bands;
  const auto& segs = tl.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const TimePoint seg_start = std::max(segs[i].start, from);
    const TimePoint seg_end = std::min(i + 1 < segs.size() ? segs[i + 1].start : to, to);
    if (seg_end <= seg_start) continue;
    const Joules e = tl.energy_between(seg_start, seg_end);
    if (!bands.empty() && bands.back().phase == segs[i].phase) {
      bands.back().end = seg_end;
      bands.back().energy += e;
    } else {
      bands.push_back({segs[i].phase, seg_start, seg_end, e});
    }
  }
  std::printf("  %-22s %10s %10s %12s %10s\n", "phase", "start_s", "end_s", "mean_mA",
              "energy_mJ");
  for (const auto& band : bands) {
    const double dur = to_seconds(band.end - band.start);
    const double mean_ma =
        dur > 0 ? in_milliamps((band.energy / (band.end - band.start)) / volts(3.3)) : 0.0;
    const std::string_view name = power::phase_name(band.phase);
    std::printf("  %-22.*s %10.4f %10.4f %12.2f %10.3f\n", static_cast<int>(name.size()),
                name.data(), to_seconds(band.start - from), to_seconds(band.end - from),
                mean_ma, in_millijoules(band.energy));
  }
}

void print_series(const std::vector<power::TraceSample>& trace) {
  const auto sparse = power::TraceRecorder::decimate(trace, 100);
  std::printf("  trace (decimated to %zu points, max-preserving):\n", sparse.size());
  std::printf("  time_s,current_mA\n");
  for (const auto& s : sparse) {
    std::printf("  %.4f,%.3f\n", s.time_s, s.current_ma);
  }
}

/// WiFi-DC (Figure 3a): sleep 0.2 s, full connect + transmit, sleep again.
void run_fig3a() {
  rig::WifiCell cell;

  std::optional<sta::CycleReport> report;
  cell.scheduler.schedule_at(TimePoint{msec(200)}, [&] {
    cell.station.run_duty_cycle_transmission(Bytes(16, 0x42),
                                             [&](const sta::CycleReport& r) { report = r; });
  });
  cell.scheduler.run_until(TimePoint{seconds(10)});

  const TimePoint from{};
  const TimePoint to = report->sleep_time + msec(300);
  power::TraceRecorder recorder;
  const auto trace = recorder.record(cell.station.timeline(), from, to);

  std::printf("--- Figure 3a: WiFi (duty cycle, full association) ---\n");
  std::printf("  success=%d, awake %.3f s, cycle energy %.1f mJ, trace peak %.1f mA\n",
              report->success ? 1 : 0, to_seconds(report->active_time),
              in_millijoules(report->energy), power::TraceRecorder::peak_ma(trace));
  std::printf("  paper: awake ~1.4 s (0.2-1.6 s), peaks ~250 mA, phases: MC/WiFi init -> "
              "Probe/Auth./Associate -> DHCP/ARP -> Tx\n\n");
  print_phases(cell.station.timeline(), from, to);
  std::printf("\n");
  print_series(trace);
  std::printf("\n");
}

/// Wi-LE (Figure 3b): sleep 0.2 s, short init + single injection, sleep.
void run_fig3b() {
  rig::WileDevice device;

  std::optional<core::SendReport> report;
  device.scheduler.schedule_at(TimePoint{msec(200)}, [&] {
    device.sender.send_now(Bytes(16, 0x42), [&](const core::SendReport& r) { report = r; });
  });
  device.scheduler.run_until(TimePoint{seconds(5)});

  const TimePoint from{};
  const TimePoint to = TimePoint{msec(200)} + report->active_time + msec(300);
  power::TraceRecorder recorder;
  const auto trace = recorder.record(device.sender.timeline(), from, to);

  std::printf("--- Figure 3b: Wi-LE (connection-less beacon injection) ---\n");
  std::printf("  success=%d, awake %.3f s, tx-only energy %.1f uJ, cycle energy %.2f mJ, "
              "trace peak %.1f mA\n",
              report->success ? 1 : 0, to_seconds(report->active_time),
              in_microjoules(report->tx_only_energy), in_millijoules(report->cycle_energy),
              power::TraceRecorder::peak_ma(trace));
  std::printf("  paper: much shorter init than WiFi (no client prep), single Tx spike, "
              "then straight back to sleep\n\n");
  print_phases(device.sender.timeline(), from, to);
  std::printf("\n");
  print_series(trace);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== E1/E2: Figure 3 — current traces for one transmission ===\n\n");
  run_fig3a();
  run_fig3b();
  return 0;
}
