// Reference oracle for the batched AUTH verifier (crypto/verify_queue.hpp)
// and the flood-throughput loops the DoS benches time against it
// (bench/dos_throughput, bench/dos_resilience).
#pragma once

#include <cstdint>
#include <span>

#include "adversary/dos_attacker.hpp"
#include "common/bit_vector.hpp"
#include "crypto/verify_queue.hpp"

namespace jrsnd::oracle {

/// The historical one-at-a-time path, kept as the equivalence reference:
/// full BitVector decode (allocating slices), a fresh KeySource::key_for
/// call, raw hmac_sha256, and a truncated-digest compare. Bumps the same
/// per-frame decision counters as crypto::VerifyQueue; accept/reject
/// verdicts are bit-identical by construction.
[[nodiscard]] crypto::VerifyResult verify_one_shot(const crypto::VerifyWire& wire,
                                                   const BitVector& frame,
                                                   std::uint32_t frame_code,
                                                   std::uint32_t expected_code,
                                                   const crypto::KeySource& source);

/// Throughput of a verification loop over a fixed frame set.
struct FloodThroughput {
  std::uint64_t frames = 0;  ///< frames verified across all repetitions
  double seconds = 0.0;      ///< wall time spent verifying
  [[nodiscard]] double frames_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(frames) / seconds : 0.0;
  }
};

/// Runs `frames` through a VerifyQueue drain (the batched pipeline) repeatedly
/// until at least `min_seconds` of wall time elapses; returns the measured
/// throughput. `queue`'s peer cache persists across repetitions (steady state).
[[nodiscard]] FloodThroughput measure_batched_throughput(
    crypto::VerifyQueue& queue, std::span<const adversary::FloodFrame> frames,
    const crypto::KeySource& source, std::uint32_t expected_code, double min_seconds);

/// Same measurement over verify_one_shot (no peer cache, no batching) — the
/// unbatched baseline dos_throughput compares against.
[[nodiscard]] FloodThroughput measure_one_shot_throughput(
    const crypto::VerifyWire& wire, std::span<const adversary::FloodFrame> frames,
    const crypto::KeySource& source, std::uint32_t expected_code, double min_seconds);

}  // namespace jrsnd::oracle
