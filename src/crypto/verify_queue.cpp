#include "crypto/verify_queue.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/metrics_registry.hpp"

namespace jrsnd::crypto {

namespace {

/// MAC input layout shared with auth_mac (core/messages.cpp): the sender ID as a
/// 32-bit big-endian field, then the l_n nonce bits, MSB-first, zero-padded
/// to a byte boundary. 32 + 64 nonce bits is the ceiling -> 12 bytes.
constexpr std::size_t kMaxMacInputBytes = 12;

std::size_t build_mac_input(const VerifyWire& wire, const BitVector& frame,
                            std::uint32_t sender,
                            std::array<std::uint8_t, kMaxMacInputBytes>& out) noexcept {
  out.fill(0);
  out[0] = static_cast<std::uint8_t>(sender >> 24);
  out[1] = static_cast<std::uint8_t>(sender >> 16);
  out[2] = static_cast<std::uint8_t>(sender >> 8);
  out[3] = static_cast<std::uint8_t>(sender);
  // The nonce starts at bit 32 of the input — byte-aligned, so it packs as a
  // left-justified big-endian field.
  const std::uint64_t nonce = frame.read_uint(wire.l_t + wire.l_id, wire.l_n);
  const std::size_t nonce_bytes = (wire.l_n + 7) / 8;
  const std::uint64_t shifted = nonce << (nonce_bytes * 8 - wire.l_n);
  for (std::size_t i = 0; i < nonce_bytes; ++i) {
    out[4 + i] = static_cast<std::uint8_t>(shifted >> (8 * (nonce_bytes - 1 - i)));
  }
  return 4 + nonce_bytes;
}

}  // namespace

const char* verify_stage_name(VerifyStage stage) noexcept {
  switch (stage) {
    case VerifyStage::Accept: return "accept";
    case VerifyStage::RejectLength: return "reject_length";
    case VerifyStage::RejectFormat: return "reject_format";
    case VerifyStage::RejectCode: return "reject_code";
    case VerifyStage::RejectMac: return "reject_mac";
  }
  return "?";
}

VerifyQueue::VerifyQueue(const VerifyWire& wire) : wire_(wire) {
  assert(wire_.l_t >= 1 && wire_.l_t <= 32);
  assert(wire_.l_id >= 1 && wire_.l_id <= 32);
  assert(wire_.l_n >= 1 && wire_.l_n <= 64);
  assert(wire_.l_mac >= 1 && wire_.l_mac <= 256);
}

void VerifyQueue::reserve(std::size_t frames) {
  pending_.reserve(frames);
  mac_scratch_.reserve(frames);
}

void VerifyQueue::push(const BitVector& frame, std::uint32_t frame_code,
                       std::uint32_t expected_code) {
  pending_.push_back(Pending{&frame, frame_code, expected_code});
}

std::uint64_t VerifyQueue::DrainCounts::frames() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : stages) total += n;
  return total;
}

void VerifyQueue::DrainCounts::publish() const {
  JRSND_COUNT_N("crypto.verify.frames", frames());
  JRSND_COUNT_N("crypto.reject.length", at(VerifyStage::RejectLength));
  JRSND_COUNT_N("crypto.reject.format", at(VerifyStage::RejectFormat));
  JRSND_COUNT_N("crypto.reject.code", at(VerifyStage::RejectCode));
  JRSND_COUNT_N("crypto.reject.mac", at(VerifyStage::RejectMac));
  JRSND_COUNT_N("crypto.verify.accepted", at(VerifyStage::Accept));
  JRSND_COUNT_N("crypto.verify.peer_cache.hits", cache_hits);
  JRSND_COUNT_N("crypto.verify.peer_cache.misses", cache_misses);
}

bool VerifyQueue::cheap_stages(const Pending& p, VerifyResult& out,
                               DrainCounts& counts) const noexcept {
  const BitVector& frame = *p.frame;
  if (frame.size() != wire_.frame_bits()) {
    out.stage = VerifyStage::RejectLength;
    counts.tally(out.stage);
    return false;
  }
  if (frame.read_uint(0, wire_.l_t) != wire_.auth_type) {
    out.stage = VerifyStage::RejectFormat;
    counts.tally(out.stage);
    return false;
  }
  out.sender = static_cast<std::uint32_t>(frame.read_uint(wire_.l_t, wire_.l_id));
  if (p.frame_code != p.expected_code) {
    out.stage = VerifyStage::RejectCode;
    counts.tally(out.stage);
    return false;
  }
  return true;  // survived the cheap stages; MAC decides
}

void VerifyQueue::mac_stage(const BitVector& frame, const PairKey& entry, VerifyResult& result,
                            DrainCounts& counts) const noexcept {
  std::array<std::uint8_t, kMaxMacInputBytes> input;
  const std::size_t input_len = build_mac_input(wire_, frame, result.sender, input);
  const Sha256Digest expected =
      entry.schedule.mac(std::span<const std::uint8_t>(input.data(), input_len));
  if (wire_mac_equals(frame, expected)) {
    result.stage = VerifyStage::Accept;
    result.key = entry.raw;
  } else {
    result.stage = VerifyStage::RejectMac;
  }
  counts.tally(result.stage);
}

bool VerifyQueue::wire_mac_equals(const BitVector& frame,
                                  const Sha256Digest& expected) const noexcept {
  // Compare the first l_mac bits of the expected digest against the l_mac
  // wire bits, in place, 64 bits at a time: each digest word is loaded
  // big-endian and right-aligned to the width read from the wire.
  // Constant-time OR-accumulate, mirroring digest_equal.
  const std::size_t mac_off = std::size_t{wire_.l_t} + wire_.l_id + wire_.l_n;
  std::uint64_t diff = 0;
  for (std::size_t bit = 0; bit < wire_.l_mac; bit += 64) {
    const std::size_t width = std::min<std::size_t>(64, wire_.l_mac - bit);
    std::uint64_t digest_word = 0;
    for (std::size_t b = 0; b < 8; ++b) digest_word = (digest_word << 8) | expected[bit / 8 + b];
    diff |= frame.read_uint(mac_off + bit, width) ^ (digest_word >> (64 - width));
  }
  return diff == 0;
}

const PairKey& VerifyQueue::resolve_key(std::uint64_t cache_key, std::uint32_t sender,
                                        const KeySource& source, DrainCounts& counts) {
  const auto it = keys_.find(cache_key);
  if (it != keys_.end()) {
    ++counts.cache_hits;
    return it->second;
  }
  ++counts.cache_misses;
  const SymmetricKey raw = source.key_for(sender);
  const HmacKey schedule(std::span<const std::uint8_t>(raw.data(), raw.size()));
  if (keys_.size() < kMaxCachedPeers) {
    return keys_.emplace(cache_key, PairKey{raw, schedule}).first->second;
  }
  overflow_ = PairKey{raw, schedule};
  return overflow_;
}

std::size_t VerifyQueue::drain(const KeySource& source, std::vector<VerifyResult>& out) {
  out.clear();
  mac_scratch_.clear();
  DrainCounts counts;

  // Pass 1: the allocation-free cheap stages; survivors queue for the MAC
  // stage keyed by the pairwise key they will verify under.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    VerifyResult result;
    if (cheap_stages(pending_[i], result, counts)) {
      mac_scratch_.push_back(MacWork{source.cache_key(result.sender),
                                     static_cast<std::uint32_t>(i)});
    }
    out.push_back(result);
  }

  // Pass 2: group survivors by peer so each key schedule is resolved once
  // per batch. The sort is in-place over POD scratch — no allocation; the
  // index tiebreak keeps the grouping deterministic.
  std::sort(mac_scratch_.begin(), mac_scratch_.end(),
            [](const MacWork& a, const MacWork& b) {
              return a.cache_key != b.cache_key ? a.cache_key < b.cache_key
                                                : a.index < b.index;
            });

  // Stage 4, one group per peer: each survivor goes through the same
  // single-frame MAC stage as verify_now, under its group's schedule.
  std::size_t g = 0;
  while (g < mac_scratch_.size()) {
    const std::uint64_t group_key = mac_scratch_[g].cache_key;
    const std::uint32_t group_sender = out[mac_scratch_[g].index].sender;
    const PairKey& entry = resolve_key(group_key, group_sender, source, counts);
    for (; g < mac_scratch_.size() && mac_scratch_[g].cache_key == group_key; ++g) {
      const std::uint32_t idx = mac_scratch_[g].index;
      mac_stage(*pending_[idx].frame, entry, out[idx], counts);
    }
  }

  JRSND_COUNT("crypto.verify.batches");
  counts.publish();

  pending_.clear();
  return counts.at(VerifyStage::Accept);
}

VerifyResult VerifyQueue::verify_now(const BitVector& frame, std::uint32_t frame_code,
                                     std::uint32_t expected_code, const KeySource& source,
                                     const PinnedKey* pinned) {
  DrainCounts counts;
  const VerifyResult result = verify_now(frame, frame_code, expected_code, source, pinned, counts);
  counts.publish();
  return result;
}

VerifyResult VerifyQueue::verify_now(const BitVector& frame, std::uint32_t frame_code,
                                     std::uint32_t expected_code, const KeySource& source,
                                     const PinnedKey* pinned, DrainCounts& counts) {
  VerifyResult result;
  const Pending p{&frame, frame_code, expected_code};
  if (cheap_stages(p, result, counts)) {
    const std::uint64_t cache_key = source.cache_key(result.sender);
    const PairKey& entry = pinned != nullptr && pinned->cache_key == cache_key
                               ? pinned->key
                               : resolve_key(cache_key, result.sender, source, counts);
    mac_stage(frame, entry, result, counts);
  }
  return result;
}

std::optional<std::uint32_t> VerifyQueue::claimed_sender(const BitVector& frame) const noexcept {
  if (frame.size() != wire_.frame_bits() || frame.read_uint(0, wire_.l_t) != wire_.auth_type) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(frame.read_uint(wire_.l_t, wire_.l_id));
}

void VerifyQueue::clear_key_cache() { keys_.clear(); }

}  // namespace jrsnd::crypto
