#include "oracle/crypto_reference.hpp"

#include <chrono>
#include <vector>

#include "crypto/hmac.hpp"
#include "obs/metrics_registry.hpp"

namespace jrsnd::oracle {

using crypto::VerifyResult;
using crypto::VerifyStage;

VerifyResult verify_one_shot(const crypto::VerifyWire& wire, const BitVector& frame,
                             std::uint32_t frame_code, std::uint32_t expected_code,
                             const crypto::KeySource& source) {
  VerifyResult result;
  JRSND_COUNT("crypto.verify.frames");

  // The historical decode: a sequential bounds-checked read fails exactly
  // when the frame is the wrong size or the type tag is not AUTH.
  if (frame.size() != wire.frame_bits()) {
    result.stage = VerifyStage::RejectLength;
    JRSND_COUNT("crypto.reject.length");
    return result;
  }
  if (frame.read_uint(0, wire.l_t) != wire.auth_type) {
    result.stage = VerifyStage::RejectFormat;
    JRSND_COUNT("crypto.reject.format");
    return result;
  }
  result.sender = static_cast<std::uint32_t>(frame.read_uint(wire.l_t, wire.l_id));
  // Allocating field extraction, as AuthMessage::decode performs it.
  const std::size_t nonce_off = std::size_t{wire.l_t} + wire.l_id;
  const BitVector nonce = frame.slice(nonce_off, wire.l_n);
  const BitVector wire_mac = frame.slice(nonce_off + wire.l_n, wire.l_mac);

  if (frame_code != expected_code) {
    result.stage = VerifyStage::RejectCode;
    JRSND_COUNT("crypto.reject.code");
    return result;
  }

  // Fresh pairwise key + raw hmac_sha256 per frame — the per-frame cost the
  // batched path amortizes away.
  const crypto::SymmetricKey key = source.key_for(result.sender);
  BitVector mac_input;
  mac_input.append_uint(result.sender, 32);
  mac_input.append(nonce);
  const std::vector<std::uint8_t> input_bytes = mac_input.to_bytes();
  const crypto::Sha256Digest expected = crypto::hmac_sha256(
      std::span<const std::uint8_t>(key.data(), key.size()), input_bytes);
  const BitVector expected_bits =
      BitVector::from_bytes(std::span<const std::uint8_t>(expected.data(), expected.size()))
          .slice(0, wire.l_mac);
  if (expected_bits == wire_mac) {
    result.stage = VerifyStage::Accept;
    result.key = key;
    JRSND_COUNT("crypto.verify.accepted");
  } else {
    result.stage = VerifyStage::RejectMac;
    JRSND_COUNT("crypto.reject.mac");
  }
  return result;
}

FloodThroughput measure_batched_throughput(crypto::VerifyQueue& queue,
                                           std::span<const adversary::FloodFrame> frames,
                                           const crypto::KeySource& source,
                                           std::uint32_t expected_code, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  FloodThroughput result;
  std::vector<VerifyResult> out;
  out.reserve(frames.size());
  queue.reserve(frames.size());
  const auto start = Clock::now();
  do {
    for (const adversary::FloodFrame& frame : frames) {
      queue.push(frame.bits, frame.frame_code, expected_code);
    }
    queue.drain(source, out);
    result.frames += frames.size();
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (result.seconds < min_seconds);
  return result;
}

FloodThroughput measure_one_shot_throughput(const crypto::VerifyWire& wire,
                                            std::span<const adversary::FloodFrame> frames,
                                            const crypto::KeySource& source,
                                            std::uint32_t expected_code, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  FloodThroughput result;
  std::uint64_t accepted = 0;
  const auto start = Clock::now();
  do {
    for (const adversary::FloodFrame& frame : frames) {
      const VerifyResult v =
          verify_one_shot(wire, frame.bits, frame.frame_code, expected_code, source);
      accepted += (v.stage == VerifyStage::Accept) ? 1u : 0u;
    }
    result.frames += frames.size();
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (result.seconds < min_seconds);
  // Keep the verdicts observable so the loop cannot be optimized away.
  if (accepted > result.frames) result.frames = accepted;
  return result;
}

}  // namespace jrsnd::oracle
