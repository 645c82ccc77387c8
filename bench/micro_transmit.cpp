// Microbench for the cached transmit pipeline (docs/performance.md).
//
//  [1] End-to-end HELLO transmit at the paper's N = 512: the pre-caching
//      pipeline (per-chip channel superposition, allocating spread/receive,
//      per-call ShiftTable builds, per-message EccCodec layout + RS
//      construction) vs the cached ChipPhy::transmit_into (PreparedCodebook,
//      scratch arena, RS clean-path early exit). Bit-identity is verified
//      draw-for-draw over a batch of messages BEFORE any timing; the cached
//      path must then be >= 3x the reconstructed baseline.
//  [2] Rescan iteration cost: a resumed sliding-window scan with cached
//      tables vs the per-call table rebuild the rescan loop used to pay.
//  [3] Reed-Solomon clean-path decode: the all-zero-syndrome early exit vs
//      the full Sugiyama/Chien/Forney pipeline on clean codewords.
//  [4] Seal throughput: midstate-cached Sealer vs an uncached reference
//      (fresh key schedules + per-field info-string concatenation per frame).
//  [5] Observability overhead on the cached transmit, the median of 9
//      interleaved recorder-off/on window pairs: exits nonzero above 10%
//      (twice the 5% acceptance budget it warns at, for noisy hosts).
//
// Writes its results (bench_util.hpp, write_results) to micro_transmit.json,
// path overridable as argv[1]; scripts/check_perf.py judges them against the
// committed baseline. Exits nonzero on any identity mismatch, an overhead
// above 10%, or when the results cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "adversary/jammer.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/chip_phy.hpp"
#include "crypto/stream.hpp"
#include "dsss/prepared_codebook.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"
#include "ecc/ecc_codec.hpp"
#include "ecc/reed_solomon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/prof/perf_counters.hpp"
#include "sim/topology.hpp"

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

/// Repeats `op` until `window_s` elapsed; returns seconds per operation.
template <typename Op>
double time_op(Op&& op, double window_s = 0.3) {
  op();  // warm-up
  std::size_t passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++passes;
    elapsed = seconds_since(start);
  } while (elapsed < window_s);
  return elapsed / static_cast<double>(passes);
}

/// Median of an odd-sized sample.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The transmit pipeline as it stood before the caching layer, reconstructed
/// so the speedup is measured against the true historical baseline. Consumes
/// rng draws in exactly the same order as ChipPhy::transmit_into (pad draw,
/// then one bernoulli per uncovered chip in index order), so running both
/// from equal-seeded generators must yield bit-identical deliveries.
std::optional<BitVector> baseline_transmit(const jrsnd::core::Params& params,
                                           const jrsnd::dsss::SpreadCode& code,
                                           std::span<const jrsnd::dsss::SpreadCode> codebook,
                                           const BitVector& payload, Rng& rng) {
  namespace dsss = jrsnd::dsss;
  // Fresh codec per message: the layout and the RS generator + encode table
  // were pure per-call functions before the codec-level caches.
  const jrsnd::ecc::EccCodec codec(params.mu);
  const BitVector coded = codec.encode(payload);
  const BitVector chips = dsss::spread(coded, code);
  const std::size_t n = code.length();

  const std::size_t pad_before = static_cast<std::size_t>(rng.uniform(2 * n));
  const std::size_t pad_after = n;
  const std::size_t duration = pad_before + chips.size() + pad_after;

  // Per-chip channel superposition into freshly zeroed soft/active arrays —
  // the pre-arena ChipChannel.
  std::vector<int> soft(duration, 0);
  std::vector<std::uint8_t> active(duration, 0);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    soft[pad_before + i] += chips.get(i) ? 1 : -1;
    active[pad_before + i] = 1;
  }
  BitVector received;
  for (std::size_t i = 0; i < duration; ++i) {
    const bool up = (active[i] && soft[i] != 0) ? soft[i] > 0 : rng.bernoulli(0.5);
    received.push_back(up);
  }

  // Recover-and-rescan with the span overload: ShiftTables are rebuilt on
  // every (re)scan call, and the decode-side codec is constructed anew.
  const jrsnd::ecc::EccCodec decode_codec(params.mu);
  std::size_t offset = 0;
  while (true) {
    const auto hit = dsss::find_first_message(received, codebook, coded.size(), params.tau, offset);
    if (!hit.has_value()) return std::nullopt;
    auto decoded = decode_codec.decode(hit->message.bits, payload.size(),
                                       std::span<const std::size_t>(hit->message.erased_bits));
    if (decoded.has_value()) return decoded;
    offset = hit->chip_offset + 1;
  }
}

/// Uncached seal reference: fresh key derivations and per-field info-string
/// concatenation per frame (the pre-HmacKey Sealer, minus counter state).
jrsnd::crypto::SealedMessage baseline_seal(const jrsnd::crypto::SymmetricKey& pair_key,
                                           std::uint64_t counter,
                                           std::span<const std::uint8_t> plaintext) {
  namespace crypto = jrsnd::crypto;
  const crypto::SymmetricKey enc = crypto::derive_key(pair_key, "enc:a->b");
  const crypto::SymmetricKey mac = crypto::derive_key(pair_key, "mac:a->b");
  const auto be64_string = [](std::uint64_t v) {
    std::string s;
    for (int i = 7; i >= 0; --i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return s;
  };
  crypto::SealedMessage msg;
  msg.counter = counter;
  std::vector<std::uint8_t> ks;
  for (std::uint64_t chunk = 0; ks.size() < plaintext.size(); ++chunk) {
    const std::string info = "ctr:" + be64_string(counter) + ":" + be64_string(chunk);
    const auto part = crypto::expand(
        enc, info, std::min<std::size_t>(255 * jrsnd::crypto::kSha256DigestSize,
                                         plaintext.size() - ks.size()));
    ks.insert(ks.end(), part.begin(), part.end());
  }
  msg.ciphertext.resize(plaintext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    msg.ciphertext[i] = static_cast<std::uint8_t>(plaintext[i] ^ ks[i]);
  }
  std::vector<std::uint8_t> mac_input;
  for (int i = 7; i >= 0; --i) mac_input.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
  mac_input.insert(mac_input.end(), msg.ciphertext.begin(), msg.ciphertext.end());
  const crypto::Sha256Digest digest = crypto::hmac_sha256(mac, mac_input);
  std::copy(digest.begin(), digest.begin() + jrsnd::crypto::kSealTagBytes, msg.tag.begin());
  return msg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jrsnd;
  const std::string json_path = argc > 1 ? argv[1] : "micro_transmit.json";

  // --- [1] end-to-end HELLO transmit ---------------------------------------
  core::Params params = core::Params::defaults();
  params.N = 512;    // Table-I spreading-code length
  params.tau = 0.3;  // clean-channel scans: no false locks at 512 chips
  constexpr std::size_t kCodebook = 5;  // receiver candidate codes per HELLO
  constexpr std::size_t kPayloadBits = 96;
  constexpr std::uint64_t kSeed = 20110620;
  constexpr int kVerifyMessages = 64;

  Rng setup_rng(1);
  std::vector<dsss::SpreadCode> codes;
  for (std::size_t i = 0; i < kCodebook; ++i) {
    codes.push_back(dsss::SpreadCode::random(setup_rng, params.N, code_id(static_cast<std::uint32_t>(i))));
  }
  const dsss::SpreadCode& tx_code = codes[2];
  const BitVector payload = random_bits(setup_rng, kPayloadBits);

  const sim::Field field{100.0, 100.0};
  const sim::Topology topology(field, {{10, 10}, {20, 10}}, 50.0);
  const adversary::NullJammer clean;
  const dsss::PreparedCodebook prepared(codes);
  const core::TxCode tx{tx_code.id(), &tx_code};

  std::printf("transmit: N=%zu codebook=%zu payload=%zu bits, HELLO scan, clean channel\n",
              params.N, kCodebook, kPayloadBits);

  // Bit-identity before any timing: equal-seeded generators, message by
  // message — delivery flags and decoded payloads must agree exactly.
  {
    Rng rng_base(kSeed);
    Rng rng_fast(kSeed);
    core::ChipPhy phy(
        params, topology, clean,
        [&prepared](NodeId) -> const dsss::PreparedCodebook& { return prepared; }, rng_fast);
    BitVector out;
    for (int i = 0; i < kVerifyMessages; ++i) {
      const auto want = baseline_transmit(params, tx_code, codes, payload, rng_base);
      const bool ok =
          phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::Hello, payload, out);
      if (ok != want.has_value() || (ok && out != *want)) {
        std::fprintf(stderr, "FATAL: cached transmit differs from baseline at message %d\n", i);
        return 1;
      }
      if (!ok) {
        std::fprintf(stderr, "FATAL: clean-channel message %d not delivered\n", i);
        return 1;
      }
    }
    std::printf("  bit-identity: %d/%d messages identical to the uncached baseline\n",
                kVerifyMessages, kVerifyMessages);
  }

  Rng rng_base(kSeed);
  const double baseline_secs = time_op([&] {
    if (!baseline_transmit(params, tx_code, codes, payload, rng_base).has_value()) std::abort();
  });

  Rng rng_fast(kSeed);
  core::ChipPhy phy(
      params, topology, clean,
      [&prepared](NodeId) -> const dsss::PreparedCodebook& { return prepared; }, rng_fast);
  BitVector out;
  const double cached_secs = time_op([&] {
    if (!phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::Hello, payload, out)) {
      std::abort();
    }
  });

  const double transmit_speedup = baseline_secs / cached_secs;
  std::printf("  uncached  %8.3f ms/msg  %7.1f msg/s\n", baseline_secs * 1e3, 1.0 / baseline_secs);
  std::printf("  cached    %8.3f ms/msg  %7.1f msg/s  (%.1fx)\n", cached_secs * 1e3,
              1.0 / cached_secs, transmit_speedup);
  if (transmit_speedup < 3.0) {
    std::fprintf(stderr, "WARNING: transmit speedup %.1fx below the 3x acceptance floor\n",
                 transmit_speedup);
  }

  // --- [1b] hardware counters over the cached transmit ----------------------
  // Architecture-level numbers for the committed hot path: cycles per
  // message and IPC over a fixed batch. Under the clock fallback every
  // counter-derived value is reported n/a and written unmeasured, as in
  // micro_sync_kernel.
  obs::prof::PerfCounterSet counter_set;
  constexpr std::size_t kCounterMessages = 64;
  const obs::prof::CounterTotals tx_counters = counter_set.measure([&] {
    for (std::size_t i = 0; i < kCounterMessages; ++i) {
      if (!phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::Hello, payload, out)) {
        std::abort();
      }
    }
  });
  const double cycles_per_msg =
      static_cast<double>(tx_counters.cycles) / static_cast<double>(kCounterMessages);
  const bool counters_real = counter_set.backend() == obs::prof::ProfBackend::kPerfEvent;
  const auto pmu = [counters_real](double v) {
    return counters_real ? std::optional<double>(v) : std::nullopt;
  };
  if (counters_real) {
    std::printf("  counters  [%s] %.3g cycles/msg  IPC %.2f  %.3g LLC-miss/kinst\n",
                obs::prof::backend_name(counter_set.backend()), cycles_per_msg,
                tx_counters.ipc(), tx_counters.llc_misses_per_kinst());
  } else {
    std::printf("  counters  [%s] cycles/msg n/a  IPC n/a  LLC-miss/kinst n/a\n",
                obs::prof::backend_name(counter_set.backend()));
  }

  // --- [2] rescan iteration: cached tables vs per-call rebuild -------------
  Rng rescan_rng(9);
  const BitVector noise = random_bits(rescan_rng, 2048);
  constexpr std::size_t kRescanBits = 3;
  double rescan_uncached_secs = 0.0;
  double rescan_cached_secs = 0.0;
  {
    const std::span<const dsss::SpreadCode> span_codes(codes);
    rescan_uncached_secs = time_op([&] {
      if (dsss::find_first_message(noise, span_codes, kRescanBits, params.tau).has_value()) {
        std::abort();
      }
    });
    dsss::SyncHit hit;
    rescan_cached_secs = time_op([&] {
      if (dsss::find_first_message_into(noise, prepared, kRescanBits, params.tau, 0, hit)) {
        std::abort();
      }
    });
  }
  const double rescan_speedup = rescan_uncached_secs / rescan_cached_secs;
  std::printf("rescan (%zu-bit window over %zu chips, %zu codes):\n", kRescanBits, noise.size(),
              kCodebook);
  std::printf("  per-call tables %8.1f us/scan\n", rescan_uncached_secs * 1e6);
  std::printf("  cached tables   %8.1f us/scan  (%.1fx)\n", rescan_cached_secs * 1e6,
              rescan_speedup);

  // --- [3] RS clean-path decode: early exit vs forced full pipeline --------
  const ecc::ReedSolomon rs(64, 32);  // the paper's mu = 1 rate-1/2 shape
  Rng rs_rng(13);
  std::vector<std::uint8_t> data(32);
  for (auto& b : data) b = static_cast<std::uint8_t>(rs_rng.uniform(256));
  const auto codeword = rs.encode(data);
  ecc::ReedSolomon::DecodeScratch rs_scratch;
  std::vector<std::uint8_t> rs_out;
  const double rs_full_secs = time_op([&] {
    if (!rs.decode_into(codeword, {}, rs_out, rs_scratch,
                        ecc::ReedSolomon::DecodeMode::kForceFull)) {
      std::abort();
    }
  });
  const double rs_clean_secs = time_op([&] {
    if (!rs.decode_into(codeword, {}, rs_out, rs_scratch)) std::abort();
  });
  const double rs_speedup = rs_full_secs / rs_clean_secs;
  std::printf("rs decode RS(64,32), clean codeword:\n");
  std::printf("  full pipeline %8.2f us/decode\n", rs_full_secs * 1e6);
  std::printf("  early exit    %8.2f us/decode  (%.1fx)\n", rs_clean_secs * 1e6, rs_speedup);

  // --- [4] seal: midstate-cached Sealer vs uncached reference --------------
  const crypto::SymmetricKey pair_key = [] {
    crypto::SymmetricKey k;
    k.fill(0x42);
    return k;
  }();
  std::vector<std::uint8_t> plaintext(128);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // Equivalence first: same counter, same frame.
  {
    crypto::Sealer sealer(pair_key, "a->b");
    const crypto::SealedMessage fast = sealer.seal(plaintext);
    const crypto::SealedMessage slow = baseline_seal(pair_key, fast.counter, plaintext);
    if (fast.ciphertext != slow.ciphertext || fast.tag != slow.tag) {
      std::fprintf(stderr, "FATAL: cached seal differs from the uncached reference\n");
      return 1;
    }
  }
  std::uint64_t counter = 1;
  const double seal_uncached_secs =
      time_op([&] { (void)baseline_seal(pair_key, counter++, plaintext); });
  crypto::Sealer sealer(pair_key, "a->b");
  const double seal_cached_secs = time_op([&] { (void)sealer.seal(plaintext); });
  const double seal_speedup = seal_uncached_secs / seal_cached_secs;
  std::printf("seal (%zu-byte frames):\n", plaintext.size());
  std::printf("  uncached %8.2f us/frame\n", seal_uncached_secs * 1e6);
  std::printf("  cached   %8.2f us/frame  (%.1fx)\n", seal_cached_secs * 1e6, seal_speedup);

  // --- [5] observability overhead on the transmit hot path -----------------
  // The span + flight-recorder instrumentation rides inside transmit_into;
  // flipping the recorder off isolates its steady-state cost. Budget: the
  // always-on planes (flight ring + span bookkeeping, JSONL tracing off)
  // must stay under 5% of the committed transmit baseline.
  // One back-to-back off/on pair swings -12%..+20% on a shared host, so the
  // overhead is the median of interleaved pairs, alternating which side runs
  // first so neither side always gets the warmer cache or the quieter slot.
  const auto transmit_once = [&] {
    if (!phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::Hello, payload, out)) {
      std::abort();
    }
  };
  constexpr int kOverheadPairs = 9;
  std::vector<double> off_windows;
  std::vector<double> on_windows;
  std::vector<double> overhead_pcts;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    for (const bool recorder_on : {pair % 2 == 1, pair % 2 == 0}) {
      obs::set_flight_enabled(recorder_on);
      (recorder_on ? on : off) = time_op(transmit_once, 0.1);
    }
    off_windows.push_back(off);
    on_windows.push_back(on);
    overhead_pcts.push_back(100.0 * (on - off) / off);
  }
  obs::set_flight_enabled(true);
  const double obs_off_secs = median(off_windows);
  const double obs_on_secs = median(on_windows);
  const double obs_overhead_pct = median(overhead_pcts);
  std::printf("obs overhead (span + flight recorder, tracing off; median of %d pairs):\n",
              kOverheadPairs);
  std::printf("  recorder off %8.3f ms/msg\n", obs_off_secs * 1e3);
  std::printf("  recorder on  %8.3f ms/msg  (%+.1f%%)\n", obs_on_secs * 1e3, obs_overhead_pct);
  if (obs_overhead_pct > 5.0) {
    std::fprintf(stderr, "WARNING: obs overhead %.1f%% above the 5%% acceptance budget\n",
                 obs_overhead_pct);
  }

  constexpr double kOverheadGatePct = 10.0;
  const bool overhead_ok = obs_overhead_pct <= kOverheadGatePct;
  if (!overhead_ok) {
    std::fprintf(stderr, "FAIL: obs overhead %.1f%% above the %.0f%% gate\n", obs_overhead_pct,
                 kOverheadGatePct);
  }

  const std::vector<bench::Result> results = {
      {"phy.transmit.uncached_ms_per_msg", "phy", baseline_secs * 1e3, "ms/msg", true},
      {"phy.transmit.cached_ms_per_msg", "phy", cached_secs * 1e3, "ms/msg", true},
      {"phy.transmit.speedup", "phy", transmit_speedup, "x"},
      {"phy.transmit.cycles", "phy", pmu(cycles_per_msg), "cycles/msg", true},
      {"phy.transmit.ipc", "phy", pmu(tx_counters.ipc()), "instr/cycle"},
      {"phy.transmit.llc_misses_per_kinst", "phy", pmu(tx_counters.llc_misses_per_kinst()),
       "misses/kinst", true},
      {"phy.transmit.task_clock_ms", "phy",
       static_cast<double>(tx_counters.task_clock_ns) / 1e6 /
           static_cast<double>(kCounterMessages),
       "ms/msg", true},
      {"dsss.rescan.per_call_tables_us", "dsss", rescan_uncached_secs * 1e6, "us/scan", true},
      {"dsss.rescan.cached_tables_us", "dsss", rescan_cached_secs * 1e6, "us/scan", true},
      {"dsss.rescan.speedup", "dsss", rescan_speedup, "x"},
      {"ecc.rs_decode_clean.full_us", "ecc", rs_full_secs * 1e6, "us/decode", true},
      {"ecc.rs_decode_clean.early_exit_us", "ecc", rs_clean_secs * 1e6, "us/decode", true},
      {"ecc.rs_decode_clean.speedup", "ecc", rs_speedup, "x"},
      {"crypto.seal.uncached_us", "crypto", seal_uncached_secs * 1e6, "us/frame", true},
      {"crypto.seal.cached_us", "crypto", seal_cached_secs * 1e6, "us/frame", true},
      {"crypto.seal.speedup", "crypto", seal_speedup, "x"},
      {"obs.recorder_off_ms_per_msg", "obs", obs_off_secs * 1e3, "ms/msg", true},
      {"obs.recorder_on_ms_per_msg", "obs", obs_on_secs * 1e3, "ms/msg", true},
      {"obs.overhead_pct", "obs", obs_overhead_pct, "%", true},
  };
  const bool written = bench::write_results(json_path, "micro_transmit", false, results);
  return overhead_ok && written ? 0 : 1;
}
