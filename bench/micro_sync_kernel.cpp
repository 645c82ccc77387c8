// Microbench for the sliding-window sync kernel and the parallel
// Monte-Carlo engine (docs/performance.md).
//
//  [1] Scan throughput at the paper's N = 512: the seed-naive path (slice a
//      window per (offset, code), allocate an XOR vector, popcount) vs the
//      hoisted reference (one slice per offset) vs the shift-table kernel
//      (zero allocation, XOR+popcount on packed words). The kernel must be
//      >= 5x the naive path and bit-identical to it.
//  [1c] Multi-code scan at m in {5, 20, 40}: the SIMD-batched kernel
//      (BatchShiftTable::hamming_all, one buffer pass scoring every code)
//      vs the per-code shift-table loop, per supported SIMD backend, with
//      bit-identity verified before timing. The acceptance target is >= 4x
//      over the single-code kernel at m = 40 on the best vector backend
//      (>= 1.5x scalar-only).
//  [2] run_all() serial vs parallel wall time, with the results verified
//      identical (the engine's determinism contract).
//
// Writes its results (bench_util.hpp, write_results) to
// micro_sync_kernel.json, path overridable as argv[1]; scripts/check_perf.py
// judges them against the committed baseline. Exits nonzero on any identity
// mismatch or when the results cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/discovery_sim.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"
#include "dsss/sync_kernel.hpp"
#include "obs/prof/perf_counters.hpp"
#include "oracle/dsss_reference.hpp"

namespace {

using jrsnd::BitVector;
using jrsnd::Rng;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

struct ScanTiming {
  double secs_per_scan = 0.0;
  double windows_per_sec = 0.0;
  double chips_per_sec = 0.0;
  std::size_t hits = 0;  // windows above tau — also defeats dead-code elimination
};

/// Repeats `scan` (returning its per-pass hit count) until ~0.3 s elapsed.
template <typename Scan>
ScanTiming time_scan(std::size_t offsets, std::size_t m, std::size_t chips_per_window,
                     Scan&& scan) {
  ScanTiming t;
  t.hits = scan();  // warm-up pass (also the verification pass)
  std::size_t passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    t.hits = scan();
    ++passes;
    elapsed = seconds_since(start);
  } while (elapsed < 0.3);
  const double windows = static_cast<double>(offsets * m * passes);
  t.secs_per_scan = elapsed / static_cast<double>(passes);
  t.windows_per_sec = windows / elapsed;
  t.chips_per_sec = t.windows_per_sec * static_cast<double>(chips_per_window);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jrsnd;
  const std::string json_path = argc > 1 ? argv[1] : "micro_sync_kernel.json";
  std::vector<bench::Result> results;

  // --- [1] scan throughput --------------------------------------------------
  constexpr std::size_t kN = 512;    // Table-I spreading-code length
  constexpr std::size_t kM = 5;      // candidate codes per scan (ISSUE floor)
  constexpr std::size_t kBufferBits = 4096;
  constexpr double kTau = 0.8;

  Rng rng(20110620);
  std::vector<dsss::SpreadCode> codes;
  for (std::size_t i = 0; i < kM; ++i) codes.push_back(dsss::SpreadCode::random(rng, kN));
  const BitVector buffer = random_bits(rng, kBufferBits);
  const std::size_t offsets = kBufferBits - kN + 1;

  std::printf("sync-kernel scan: N=%zu m=%zu buffer=%zu bits (%zu offsets)\n", kN, kM,
              kBufferBits, offsets);

  // The seed implementation this PR replaced: one slice per (offset, code)
  // plus an allocating XOR for the popcount. Reconstructed here so the
  // speedup is measured against the true historical baseline, not the
  // already-hoisted reference oracle.
  const auto naive_scan = [&] {
    std::size_t hits = 0;
    for (std::size_t off = 0; off < offsets; ++off) {
      for (const dsss::SpreadCode& code : codes) {
        const BitVector window = buffer.slice(off, kN);
        const std::size_t ham = code.bits().xor_with(window).popcount();
        const double corr =
            (static_cast<double>(kN) - 2.0 * static_cast<double>(ham)) / static_cast<double>(kN);
        hits += corr >= kTau;
      }
    }
    return hits;
  };

  // Hoisted reference (the retained test oracle): one slice per offset.
  const auto reference_scan = [&] {
    std::size_t hits = 0;
    for (std::size_t off = 0; off < offsets; ++off) {
      const BitVector window = buffer.slice(off, kN);
      for (const dsss::SpreadCode& code : codes) hits += code.correlate(window) >= kTau;
    }
    return hits;
  };

  // Shift-table kernel: codes precomputed at all 64 alignments once, inner
  // loop is XOR+AND+popcount straight over the buffer words.
  const auto kernel_scan = [&] {
    const std::vector<oracle::ShiftTable> tables = oracle::build_shift_tables(codes);
    std::size_t hits = 0;
    for (std::size_t off = 0; off < offsets; ++off) {
      for (const oracle::ShiftTable& table : tables) hits += table.correlate(buffer, off) >= kTau;
    }
    return hits;
  };

  // Bit-identical check before timing: every (offset, code) correlation.
  {
    const std::vector<oracle::ShiftTable> tables = oracle::build_shift_tables(codes);
    for (std::size_t off = 0; off < offsets; ++off) {
      const BitVector window = buffer.slice(off, kN);
      for (std::size_t c = 0; c < kM; ++c) {
        const double naive = codes[c].correlate(window);
        if (tables[c].correlate(buffer, off) != naive) {
          std::fprintf(stderr, "FATAL: kernel != naive at offset %zu code %zu\n", off, c);
          return 1;
        }
      }
    }
  }

  const ScanTiming naive = time_scan(offsets, kM, kN, naive_scan);
  const ScanTiming reference = time_scan(offsets, kM, kN, reference_scan);
  const ScanTiming kernel = time_scan(offsets, kM, kN, kernel_scan);
  if (naive.hits != kernel.hits || reference.hits != kernel.hits) {
    std::fprintf(stderr, "FATAL: hit counts disagree (naive %zu ref %zu kernel %zu)\n",
                 naive.hits, reference.hits, kernel.hits);
    return 1;
  }

  const double speedup_vs_naive = naive.secs_per_scan / kernel.secs_per_scan;
  const double speedup_vs_reference = reference.secs_per_scan / kernel.secs_per_scan;
  std::printf("  naive     %9.2f ms/scan  %8.1f Mchip/s\n", naive.secs_per_scan * 1e3,
              naive.chips_per_sec / 1e6);
  std::printf("  reference %9.2f ms/scan  %8.1f Mchip/s  (%.1fx vs naive)\n",
              reference.secs_per_scan * 1e3, reference.chips_per_sec / 1e6,
              naive.secs_per_scan / reference.secs_per_scan);
  std::printf("  kernel    %9.2f ms/scan  %8.1f Mchip/s  (%.1fx vs naive, %.1fx vs ref)\n",
              kernel.secs_per_scan * 1e3, kernel.chips_per_sec / 1e6, speedup_vs_naive,
              speedup_vs_reference);
  if (speedup_vs_naive < 5.0) {
    std::fprintf(stderr, "WARNING: kernel speedup %.1fx below the 5x acceptance floor\n",
                 speedup_vs_naive);
  }

  // SyncHit-level equivalence on a buffer with planted messages.
  {
    Rng plant_rng(7);
    BitVector planted = random_bits(plant_rng, 777);
    planted.append(dsss::spread(random_bits(plant_rng, 8), codes[2]));
    planted.append(random_bits(plant_rng, 300));
    planted.append(dsss::spread(random_bits(plant_rng, 8), codes[0]));
    planted.append(random_bits(plant_rng, 99));
    const auto k_hits = dsss::find_all_messages(planted, codes, 8, 0.3);
    const auto r_hits = oracle::find_all_messages_reference(planted, codes, 8, 0.3);
    bool same = k_hits.size() == r_hits.size();
    for (std::size_t i = 0; same && i < k_hits.size(); ++i) {
      same = k_hits[i].code_index == r_hits[i].code_index &&
             k_hits[i].chip_offset == r_hits[i].chip_offset &&
             k_hits[i].message.bits == r_hits[i].message.bits;
    }
    if (!same || k_hits.size() != 2) {
      std::fprintf(stderr, "FATAL: kernel SyncHits differ from reference\n");
      return 1;
    }
    std::printf("  SyncHits: kernel == reference on planted buffer (%zu hits)\n", k_hits.size());
  }

  // --- [1b] hardware counters over the kernel scan --------------------------
  // A fixed pass count under a PerfCounterSet turns the throughput numbers
  // into architecture-level ones: cycles per scan, instructions per chip,
  // IPC, LLC misses. Under the clock fallback (no PMU: containers, VMs)
  // only thread CPU time is measured, so every counter-derived value is
  // reported n/a here and written unmeasured.
  obs::prof::PerfCounterSet counter_set;
  constexpr std::size_t kCounterPasses = 16;
  const obs::prof::CounterTotals scan_counters = counter_set.measure([&] {
    std::size_t sink = 0;
    for (std::size_t pass = 0; pass < kCounterPasses; ++pass) sink += kernel_scan();
    if (sink == static_cast<std::size_t>(-1)) std::abort();  // defeat DCE
  });
  const double counted_chips =
      static_cast<double>(kCounterPasses * offsets * kM) * static_cast<double>(kN);
  const double cycles_per_scan =
      static_cast<double>(scan_counters.cycles) / static_cast<double>(kCounterPasses);
  const bool counters_real = counter_set.backend() == obs::prof::ProfBackend::kPerfEvent;
  const auto pmu = [counters_real](double v) {
    return counters_real ? std::optional<double>(v) : std::nullopt;
  };
  const double instructions_per_chip =
      static_cast<double>(scan_counters.instructions) / counted_chips;
  if (counters_real) {
    std::printf("  counters  [%s] %.3g cycles/scan  %.3g instr/chip  IPC %.2f  "
                "%.3g LLC-miss/kinst\n",
                obs::prof::backend_name(counter_set.backend()), cycles_per_scan,
                instructions_per_chip, scan_counters.ipc(),
                scan_counters.llc_misses_per_kinst());
  } else {
    std::printf("  counters  [%s] cycles/scan n/a  instr/chip n/a  IPC n/a  "
                "LLC-miss/kinst n/a\n",
                obs::prof::backend_name(counter_set.backend()));
  }
  results.insert(
      results.end(),
      {{"dsss.naive_mchips_per_s", "dsss", naive.chips_per_sec / 1e6, "Mchip/s"},
       {"dsss.reference_mchips_per_s", "dsss", reference.chips_per_sec / 1e6, "Mchip/s"},
       {"dsss.kernel_mchips_per_s", "dsss", kernel.chips_per_sec / 1e6, "Mchip/s"},
       {"dsss.kernel_speedup_vs_naive", "dsss", speedup_vs_naive, "x"},
       {"dsss.kernel_speedup_vs_reference", "dsss", speedup_vs_reference, "x"},
       {"dsss.scan_cycles", "dsss", pmu(cycles_per_scan), "cycles/scan", true},
       {"dsss.scan_ipc", "dsss", pmu(scan_counters.ipc()), "instr/cycle"},
       {"dsss.scan_instructions_per_chip", "dsss", pmu(instructions_per_chip), "instr/chip",
        true},
       {"dsss.scan_llc_misses_per_kinst", "dsss", pmu(scan_counters.llc_misses_per_kinst()),
        "misses/kinst", true},
       {"dsss.scan_task_clock_ms", "dsss",
        static_cast<double>(scan_counters.task_clock_ns) / 1e6 /
            static_cast<double>(kCounterPasses),
        "ms/scan", true}});

  // --- [1c] SIMD-batched multi-code scan ------------------------------------
  // One buffer pass scores the whole candidate group: as m grows the
  // per-code loop re-reads every buffer word m times, the batched kernel
  // once. Timed per supported SIMD backend (forced via set_simd_backend —
  // the same dispatch JRSND_SIMD drives), with the batched Hammings verified
  // bit-identical to the per-code kernel at every (offset, code) first.
  // A backend this host lacks still gets its entries, unmeasured, so the
  // baseline comparison says so instead of finding them missing.
  constexpr std::size_t kGroupSizes[] = {5, 20, 40};
  const auto add_batched = [&results](dsss::SimdBackend b, std::size_t m,
                                      std::optional<double> gchips, std::optional<double> speedup,
                                      std::optional<double> cycles) {
    const std::string key =
        std::string(".") + dsss::simd_backend_name(b) + ".m" + std::to_string(m);
    results.insert(results.end(),
                   {{"dsss.batched_gchips_per_s" + key, "dsss", gchips, "Gchip/s"},
                    {"dsss.batched_speedup" + key, "dsss", speedup, "x"},
                    {"dsss.batched_cycles" + key, "dsss", cycles, "cycles/scan", true}});
  };
  std::vector<dsss::SimdBackend> backends;
  for (const dsss::SimdBackend b : {dsss::SimdBackend::kScalar, dsss::SimdBackend::kAvx2,
                                    dsss::SimdBackend::kAvx512, dsss::SimdBackend::kNeon}) {
    if (dsss::simd_backend_supported(b)) {
      backends.push_back(b);
    } else {
      for (const std::size_t m : kGroupSizes) {
        add_batched(b, m, std::nullopt, std::nullopt, std::nullopt);
      }
    }
  }
  const dsss::SimdBackend default_backend = dsss::simd_backend();
  const char* best_backend_name = dsss::simd_backend_name(default_backend);
  double best_speedup_at_40 = 0.0;

  std::printf("multi-code scan: N=%zu buffer=%zu bits, backends:", kN, kBufferBits);
  for (const dsss::SimdBackend b : backends) std::printf(" %s", dsss::simd_backend_name(b));
  std::printf(" (best: %s)\n", best_backend_name);

  for (const std::size_t m : kGroupSizes) {
    std::vector<dsss::SpreadCode> group;
    for (std::size_t i = 0; i < m; ++i) group.push_back(dsss::SpreadCode::random(rng, kN));
    const std::vector<oracle::ShiftTable> tables = oracle::build_shift_tables(group);
    const dsss::BatchShiftTable batch{std::span<const dsss::SpreadCode>(group)};
    std::vector<std::uint64_t> hams(batch.lane_count());

    // Tables prebuilt for BOTH paths: this times the steady-state scan loop
    // (the PreparedCodebook regime), not table construction.
    const auto single_scan = [&] {
      std::size_t hits = 0;
      for (std::size_t off = 0; off < offsets; ++off) {
        for (const oracle::ShiftTable& table : tables) hits += table.correlate(buffer, off) >= kTau;
      }
      return hits;
    };
    // Threshold in the Hamming domain, as batch_sync_search does: corr(h) is
    // strictly decreasing in h, so "corr >= tau" is exactly "h < hit_below"
    // with the bound found via the same double predicate.
    std::size_t hit_below = 0;
    while (hit_below <= kN && dsss::correlation_from_hamming(kN, hit_below) >= kTau) ++hit_below;
    const auto batched_scan = [&, hit_below] {
      std::size_t hits = 0;
      for (std::size_t off = 0; off < offsets; ++off) {
        batch.hamming_all(buffer, off, hams);
        for (std::size_t c = 0; c < m; ++c) hits += hams[c] < hit_below;
      }
      return hits;
    };

    const ScanTiming single = time_scan(offsets, m, kN, single_scan);
    results.push_back({"dsss.single_gchips_per_s.m" + std::to_string(m), "dsss",
                       single.chips_per_sec / 1e9, "Gchip/s"});

    for (const dsss::SimdBackend b : backends) {
      dsss::set_simd_backend(b);
      // Bit-identity gate before timing: every (offset, code) Hamming.
      for (std::size_t off = 0; off < offsets; ++off) {
        batch.hamming_all(buffer, off, hams);
        for (std::size_t c = 0; c < m; ++c) {
          if (hams[c] != tables[c].hamming(buffer, off)) {
            std::fprintf(stderr, "FATAL: batched(%s) != kernel at offset %zu code %zu m %zu\n",
                         dsss::simd_backend_name(b), off, c, m);
            return 1;
          }
        }
      }
      const ScanTiming batched = time_scan(offsets, m, kN, batched_scan);
      if (batched.hits != single.hits) {
        std::fprintf(stderr, "FATAL: batched(%s) hit count %zu != single %zu at m %zu\n",
                     dsss::simd_backend_name(b), batched.hits, single.hits, m);
        return 1;
      }
      constexpr std::size_t kBatchCounterPasses = 8;
      const obs::prof::CounterTotals batch_counters = counter_set.measure([&] {
        std::size_t sink = 0;
        for (std::size_t pass = 0; pass < kBatchCounterPasses; ++pass) sink += batched_scan();
        if (sink == static_cast<std::size_t>(-1)) std::abort();  // defeat DCE
      });

      const double batched_gchips = batched.chips_per_sec / 1e9;
      const double speedup = single.secs_per_scan / batched.secs_per_scan;
      const double batched_cycles =
          static_cast<double>(batch_counters.cycles) / static_cast<double>(kBatchCounterPasses);
      if (m == 40 && b == default_backend) best_speedup_at_40 = speedup;
      add_batched(b, m, batched_gchips, speedup, pmu(batched_cycles));

      std::printf("  m=%-2zu %-6s single %8.3f ms  batched %8.3f ms  %6.2f Gchip/s  "
                  "%.2fx  ",
                  m, dsss::simd_backend_name(b), single.secs_per_scan * 1e3,
                  batched.secs_per_scan * 1e3, batched_gchips, speedup);
      if (counters_real) {
        std::printf("%.3g cycles/scan\n", batched_cycles);
      } else {
        std::printf("cycles/scan n/a\n");
      }
    }
  }
  dsss::set_simd_backend(default_backend);
  {
    const bool vector_host = default_backend != dsss::SimdBackend::kScalar;
    const double floor = vector_host ? 4.0 : 1.5;
    if (best_speedup_at_40 < floor) {
      std::fprintf(stderr,
                   "WARNING: batched speedup %.2fx at m=40 on %s below the %.1fx acceptance "
                   "floor\n",
                   best_speedup_at_40, best_backend_name, floor);
    }
  }

  // --- [2] serial vs parallel run_all --------------------------------------
  core::ExperimentConfig cfg;
  cfg.params = core::Params::defaults();
  cfg.params.n = 300;
  cfg.params.m = 20;
  cfg.params.l = 15;
  cfg.params.q = 20;
  cfg.params.field_width = 2000.0;
  cfg.params.field_height = 2000.0;
  cfg.params.runs = 16;
  cfg.base_seed = 42;
  cfg.jammer = core::JammerKind::Random;
  const core::DiscoverySimulator sim(cfg);

  setenv("JRSND_THREADS", "1", 1);
  const auto serial_start = Clock::now();
  const core::PointResult serial = sim.run_all();
  const double serial_secs = seconds_since(serial_start);

  unsetenv("JRSND_THREADS");
  const std::size_t threads = ThreadPool::default_thread_count();
  const auto parallel_start = Clock::now();
  const core::PointResult parallel = sim.run_all();
  const double parallel_secs = seconds_since(parallel_start);

  const bool identical = serial.p_jrsnd.count() == parallel.p_jrsnd.count() &&
                         serial.p_jrsnd.mean() == parallel.p_jrsnd.mean() &&
                         serial.p_jrsnd.variance() == parallel.p_jrsnd.variance() &&
                         serial.p_dndp.mean() == parallel.p_dndp.mean() &&
                         serial.latency_dndp.mean() == parallel.latency_dndp.mean();
  const double run_speedup = serial_secs / parallel_secs;
  std::printf("run_all: n=%u runs=%u  serial %.2f s  parallel(%zu threads) %.2f s  %.2fx  %s\n",
              cfg.params.n, cfg.params.runs, serial_secs, threads, parallel_secs, run_speedup,
              identical ? "results identical" : "RESULTS DIFFER");
  if (!identical) return 1;

  // --- [3] saturated run_all -------------------------------------------------
  // Every hardware thread busy — the configuration a sweep actually runs
  // under. Both this and the single-core rate are results, so a regression
  // in either the per-run cost or the scaling shows up. The result carries
  // its thread count: a single-core host honestly labels it threads=1
  // (where "saturated" and serial coincide), and check_perf.py compares it
  // only against a baseline taken at the same thread count.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double single_core_runs_per_sec = static_cast<double>(cfg.params.runs) / serial_secs;
  if (hw < 2) {
    std::fprintf(stderr,
                 "NOTE: hardware_concurrency=%u — \"saturated\" below is a threads=1 "
                 "measurement (gated only against same-thread-count baselines)\n",
                 hw);
  }
  setenv("JRSND_THREADS", std::to_string(hw).c_str(), 1);
  const auto saturated_start = Clock::now();
  const core::PointResult saturated = sim.run_all();
  const double saturated_secs = seconds_since(saturated_start);
  unsetenv("JRSND_THREADS");
  if (saturated.p_jrsnd.mean() != serial.p_jrsnd.mean()) {
    std::fprintf(stderr, "FATAL: saturated run_all results differ from serial\n");
    return 1;
  }
  const double saturated_runs_per_sec = static_cast<double>(cfg.params.runs) / saturated_secs;
  std::printf("run_all saturated: %u threads  %.2f s  %.2f runs/s (single-core %.2f runs/s)\n",
              hw, saturated_secs, saturated_runs_per_sec, single_core_runs_per_sec);

  results.insert(
      results.end(),
      {{"core.run_all.single_core_runs_per_s", "core", single_core_runs_per_sec, "runs/s"},
       {"core.run_all.parallel_speedup", "core", run_speedup, "x", false, threads},
       {"core.run_all.saturated_runs_per_s", "core", saturated_runs_per_sec, "runs/s", false,
        hw}});
  return bench::write_results(json_path, "micro_sync_kernel", false, results) ? 0 : 1;
}
