// Topology-build bench (docs/performance.md, "Scaling the simulator").
//
// Topology rebuild at N=100k (field sized for the paper's average degree
// g ~ 20): the seed implementation — per-cell inner vectors, an allocating
// sorted within() query per node, and a materialized all-pairs list,
// reconstructed below verbatim — vs the CSR build (counting-sorted cell
// grid, symmetric half scan, two flat arrays). Adjacency and the pair
// stream are verified element-identical before timing; the acceptance
// target is a median speedup >= 5x over interleaved timing windows.
//
// Writes its results (bench_util.hpp, write_results) to scale_sim.json,
// path overridable via argv; scripts/check_perf.py judges them against the
// committed baseline. --smoke runs n=5k and names the workload
// scale_sim.smoke. Exits nonzero on an identity mismatch, a full-size median
// rebuild speedup below 5x, or when the results cannot be written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/prof/perf_counters.hpp"
#include "sim/field.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

namespace {

using namespace jrsnd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of an odd-sized sample.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// --- the seed implementation, reconstructed as the baseline ----------------
// Per-cell inner vectors; within() allocates and sorts a result per call;
// the topology materializes per-node vectors plus the full pair list. This
// is the code path the CSR build replaced — kept here so speedup_vs_seed
// measures against the true historical baseline.

class LegacyIndex {
 public:
  LegacyIndex(const sim::Field& field, const std::vector<sim::Position>& positions, double radius)
      : cell_size_(std::max(radius, 1e-9)),
        cols_(static_cast<std::size_t>(std::ceil(field.width() / cell_size_)) + 1),
        rows_(static_cast<std::size_t>(std::ceil(field.height() / cell_size_)) + 1),
        positions_(positions),
        cells_(cols_ * rows_) {
    for (std::uint32_t i = 0; i < positions_.size(); ++i) {
      cells_[cell_of(positions_[i])].push_back(i);
    }
  }

  [[nodiscard]] std::vector<NodeId> within(const sim::Position& center, double radius,
                                           NodeId exclude) const {
    std::vector<NodeId> out;
    const auto cx =
        std::min(static_cast<std::size_t>(std::max(center.x, 0.0) / cell_size_), cols_ - 1);
    const auto cy =
        std::min(static_cast<std::size_t>(std::max(center.y, 0.0) / cell_size_), rows_ - 1);
    const std::size_t x_lo = cx > 0 ? cx - 1 : 0;
    const std::size_t y_lo = cy > 0 ? cy - 1 : 0;
    const std::size_t x_hi = std::min(cx + 1, cols_ - 1);
    const std::size_t y_hi = std::min(cy + 1, rows_ - 1);
    const double r2 = radius * radius;
    for (std::size_t y = y_lo; y <= y_hi; ++y) {
      for (std::size_t x = x_lo; x <= x_hi; ++x) {
        for (const std::uint32_t idx : cells_[y * cols_ + x]) {
          if (node_id(idx) == exclude) continue;
          const double dx = positions_[idx].x - center.x;
          const double dy = positions_[idx].y - center.y;
          if (dx * dx + dy * dy < r2) out.push_back(node_id(idx));
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  [[nodiscard]] std::size_t cell_of(const sim::Position& p) const {
    const auto cx = std::min(static_cast<std::size_t>(std::max(p.x, 0.0) / cell_size_), cols_ - 1);
    const auto cy = std::min(static_cast<std::size_t>(std::max(p.y, 0.0) / cell_size_), rows_ - 1);
    return cy * cols_ + cx;
  }

  double cell_size_;
  std::size_t cols_;
  std::size_t rows_;
  const std::vector<sim::Position>& positions_;
  std::vector<std::vector<std::uint32_t>> cells_;
};

struct LegacyTopology {
  std::vector<std::vector<NodeId>> adjacency;
  std::vector<std::pair<NodeId, NodeId>> pairs;

  LegacyTopology(const sim::Field& field, const std::vector<sim::Position>& positions,
                 double radius)
      : adjacency(positions.size()) {
    const LegacyIndex index(field, positions, radius);
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      adjacency[i] = index.within(positions[i], radius, node_id(i));
      for (const NodeId j : adjacency[i]) {
        if (raw(j) > i) pairs.emplace_back(node_id(i), j);
      }
    }
  }
};

bool identical_topology(const LegacyTopology& legacy, const sim::Topology& csr) {
  const std::size_t n = legacy.adjacency.size();
  if (csr.node_count() != n || csr.pair_count() != legacy.pairs.size()) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto row = csr.neighbors(node_id(i));
    const auto& ref = legacy.adjacency[i];
    if (row.size() != ref.size() || !std::equal(row.begin(), row.end(), ref.begin())) return false;
  }
  std::size_t k = 0;
  for (const auto& [a, b] : csr.pairs()) {
    if (legacy.pairs[k].first != a || legacy.pairs[k].second != b) return false;
    ++k;
  }
  return k == legacy.pairs.size();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "scale_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const std::size_t n = smoke ? 5000 : 100000;
  const double radius = 300.0;
  const double target_degree = 20.0;
  // Field area A = n * pi * r^2 / g keeps the average degree at g.
  const double side =
      std::sqrt(static_cast<double>(n) * 3.14159265358979323846 * radius * radius / target_degree);
  const sim::Field field{side, side};
  const std::size_t rebuilds = smoke ? 3 : 5;
  const std::size_t rebuild_windows = smoke ? 3 : 9;

  std::printf("scale_sim: n=%zu field=%.0fm radius=%.0fm (%s)\n", n, side, radius,
              smoke ? "smoke" : "full");

  Rng rng(20110620);
  const sim::UniformPlacement placement(field, n, rng);
  const std::vector<sim::Position> snapshot = placement.snapshot(kSimStart);

  obs::prof::PerfCounterSet counter_set;
  const bool counters_real = counter_set.backend() == obs::prof::ProfBackend::kPerfEvent;

  // --- topology rebuild: seed path vs CSR -----------------------------------
  {
    const LegacyTopology legacy_once(field, snapshot, radius);
    const sim::Topology csr_once(field, snapshot, radius);
    if (!identical_topology(legacy_once, csr_once)) {
      std::fprintf(stderr, "FAIL: CSR topology differs from the seed build\n");
      return 1;
    }
    std::printf("identity: CSR == seed (%zu pairs, g=%.2f)\n", csr_once.pair_count(),
                csr_once.average_degree());
  }

  // One window of `rebuilds` per side read 4.2-5.1x on a shared 4-vCPU
  // host, straddling the floor. So the two paths run in interleaved windows,
  // alternating which goes first so neither always gets the warmer cache or
  // the quieter slot, and every reported build figure is a median over them.
  std::vector<double> seed_window_ms;
  std::vector<double> csr_window_ms;
  std::vector<double> window_speedups;
  obs::prof::CounterTotals build_counters{};
  for (std::size_t w = 0; w < rebuild_windows; ++w) {
    double seed_window = 0.0;
    double csr_window = 0.0;
    for (const bool csr_side : {w % 2 == 1, w % 2 == 0}) {
      const auto start = Clock::now();
      if (csr_side) {
        build_counters += counter_set.measure([&] {
          for (std::size_t k = 0; k < rebuilds; ++k) {
            const sim::Topology t(field, snapshot, radius);
            if (t.pair_count() == 0) std::exit(1);
          }
        });
        csr_window = 1e3 * seconds_since(start) / static_cast<double>(rebuilds);
      } else {
        for (std::size_t k = 0; k < rebuilds; ++k) {
          const LegacyTopology t(field, snapshot, radius);
          if (t.pairs.empty()) return 1;  // defeat dead-code elimination
        }
        seed_window = 1e3 * seconds_since(start) / static_cast<double>(rebuilds);
      }
    }
    seed_window_ms.push_back(seed_window);
    csr_window_ms.push_back(csr_window);
    window_speedups.push_back(seed_window / csr_window);
  }
  const double seed_ms = median(seed_window_ms);
  const double csr_ms = median(csr_window_ms);
  const double speedup = median(window_speedups);
  const double rebuilds_per_sec = 1e3 / csr_ms;
  const auto [min_speedup, max_speedup] =
      std::minmax_element(window_speedups.begin(), window_speedups.end());
  std::printf("rebuild (median of %zu windows): seed %.2f ms, csr %.2f ms -> %.2fx "
              "[%.2fx..%.2fx] (%.1f rebuilds/s)\n",
              rebuild_windows, seed_ms, csr_ms, speedup, *min_speedup, *max_speedup,
              rebuilds_per_sec);

  // --- summary + JSON -------------------------------------------------------
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::printf("peak rss %.1f MB\n", peak_rss_mb);

  bool gates_ok = true;
  if (!smoke && speedup < 5.0) {
    std::fprintf(stderr, "FAIL: median rebuild speedup %.2fx below the 5x acceptance floor\n",
                 speedup);
    gates_ok = false;
  }

  // The clock fallback measures no cycles: unmeasured.
  const auto pmu = [counters_real](std::uint64_t cycles) {
    return counters_real ? std::optional<double>(static_cast<double>(cycles)) : std::nullopt;
  };
  const std::vector<bench::Result> results = {
      {"sim.build.seed_ms_per_rebuild", "sim", seed_ms, "ms", true},
      {"sim.build.csr_ms_per_rebuild", "sim", csr_ms, "ms", true},
      {"sim.build.speedup_vs_seed", "sim", speedup, "x"},
      {"sim.build.rebuilds_per_s", "sim", rebuilds_per_sec, "rebuilds/s"},
      {"sim.build.cycles", "sim", pmu(build_counters.cycles / rebuild_windows), "cycles", true},
      {"sim.peak_rss_mb", "sim", peak_rss_mb, "MB", true},
  };
  const bool written = bench::write_results(json_path, "scale_sim", smoke, results);
  return gates_ok && written ? 0 : 1;
}
