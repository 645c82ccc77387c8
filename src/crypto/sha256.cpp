#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "common/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jrsnd::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

// Big-endian stores as one word write each. The padded block and the digest
// are read back a word or 16 bytes at a time (the compression, the outer
// HMAC hash), and a wide load over byte stores stalls store forwarding.
void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

void compress_scalar(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

/// The same compression on the SHA extensions. sha256rnds2 runs two rounds
/// on the state split as {A,B,E,F} / {C,D,G,H}; each 16-byte step feeds it
/// four schedule words plus constants, and msg1/msg2 extend the schedule
/// four words at a time from the rolling window m[0..3].
/// 64-byte aligned: where the fully unrolled rounds fall against fetch-block
/// boundaries otherwise shifts with every change to unrelated code linked
/// before it (such a 16-byte move once cost the auth_flood bench 6-7%).
__attribute__((target("sha,sse4.1"), aligned(64))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
  // Byte swap within each dword: the block is big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i m[4];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    __m128i& cur = m[i % 4];
    if (i < 4) {
      cur = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
                             bswap);
    }
    __m128i wk = _mm_add_epi32(
        cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (i >= 3 && i < 15) {  // finish the next group: + w[t-7], then sigma1
      __m128i& next = m[(i + 1) % 4];
      next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(i + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, cur);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (i >= 1 && i < 13) {  // start the group after next: sigma0
      __m128i& prev = m[(i + 3) % 4];
      prev = _mm_sha256msg1_epu32(prev, cur);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif

}  // namespace

const char* sha256_backend_name(Sha256Backend backend) noexcept {
  switch (backend) {
    case Sha256Backend::kScalar:
      return "scalar";
    case Sha256Backend::kShaNi:
      return "sha-ni";
  }
  return "unknown";
}

Sha256Backend sha256_backend() {
  return cpu_features().sha && simd_backend() != SimdBackend::kScalar ? Sha256Backend::kShaNi
                                                                      : Sha256Backend::kScalar;
}

void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
#if defined(__x86_64__)
  if (sha256_backend() == Sha256Backend::kShaNi) {
    compress_sha_ni(state, block);
    return;
  }
#endif
  compress_scalar(state, block);
}

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  // An empty span may carry a null data(); memcpy from it is undefined even
  // for zero bytes.
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::update(const std::string& text) noexcept {
  update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                       text.size()));
}

Sha256Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding, written in place: 0x80, zeros up to byte 56 of a block (a
  // second block when the first has no room for the length), then the
  // 64-bit big-endian length. update() leaves buffer_len_ below 64.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_.data() + 56, bit_length);
  process_block(buffer_.data());
  buffer_len_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[static_cast<std::size_t>(i)]);
  return digest;
}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  sha256_compress(state_, block);
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Sha256Digest Sha256::hash(const std::string& text) noexcept {
  Sha256 ctx;
  ctx.update(text);
  return ctx.finalize();
}

}  // namespace jrsnd::crypto
