#include "crypto/sha256_multi.hpp"

#include <cstring>

#include "common/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jrsnd::crypto {

namespace {

#if defined(__x86_64__)

// The same round constants as sha256.cpp; duplicated here because the AVX2
// path broadcasts them and the scalar path goes through sha256_compress.
constexpr std::uint32_t kK[64] = {
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

__attribute__((target("avx2"), always_inline)) inline __m256i rotr32(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

/// Word i of every lane's block, big-endian, gathered into one vector
/// (element l = lane l). memcpy loads: the byte blocks carry no alignment.
__attribute__((target("avx2"), always_inline)) inline __m256i gather_be32(
    const std::uint8_t blocks[kSha256Lanes][64], int i, __m256i bswap) {
  alignas(32) std::uint32_t tmp[kSha256Lanes];
  for (std::size_t l = 0; l < kSha256Lanes; ++l) std::memcpy(&tmp[l], blocks[l] + 4 * i, 4);
  const __m256i raw = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
  return _mm256_shuffle_epi8(raw, bswap);
}

// 64-byte aligned, like compress_sha_ni: where the fully unrolled rounds
// fall against fetch-block boundaries otherwise shifts with every change to
// unrelated code linked before it (a 16-byte move cost auth_flood 6-7%).
__attribute__((target("avx2"), aligned(64))) void compress_x8_avx2(
    std::array<std::uint32_t, 8> states[kSha256Lanes],
    const std::uint8_t blocks[kSha256Lanes][64]) noexcept {
  // Per-128-bit-lane byte swap: turns each little-endian dword load into the
  // big-endian word FIPS 180-4 schedules.
  const __m256i bswap = _mm256_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
                                        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  __m256i w[64];
  for (int i = 0; i < 16; ++i) w[i] = gather_be32(blocks, i, bswap);
  for (int i = 16; i < 64; ++i) {
    const __m256i w15 = w[i - 15];
    const __m256i w2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(_mm256_xor_si256(rotr32(w15, 7), rotr32(w15, 18)),
                                        _mm256_srli_epi32(w15, 3));
    const __m256i s1 = _mm256_xor_si256(_mm256_xor_si256(rotr32(w2, 17), rotr32(w2, 19)),
                                        _mm256_srli_epi32(w2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0), _mm256_add_epi32(w[i - 7], s1));
  }

  // State word j across all lanes in one vector.
  alignas(32) std::uint32_t column[8];
  __m256i v[8];
  for (int j = 0; j < 8; ++j) {
    for (std::size_t l = 0; l < kSha256Lanes; ++l) column[l] = states[l][static_cast<std::size_t>(j)];
    v[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(column));
  }
  __m256i a = v[0], b = v[1], c = v[2], d = v[3], e = v[4], f = v[5], g = v[6], h = v[7];

  for (int i = 0; i < 64; ++i) {
    const __m256i s1 =
        _mm256_xor_si256(_mm256_xor_si256(rotr32(e, 6), rotr32(e, 11)), rotr32(e, 25));
    const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(static_cast<int>(kK[i])));
    const __m256i s0 =
        _mm256_xor_si256(_mm256_xor_si256(rotr32(a, 2), rotr32(a, 13)), rotr32(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i temp2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }

  v[0] = _mm256_add_epi32(v[0], a);
  v[1] = _mm256_add_epi32(v[1], b);
  v[2] = _mm256_add_epi32(v[2], c);
  v[3] = _mm256_add_epi32(v[3], d);
  v[4] = _mm256_add_epi32(v[4], e);
  v[5] = _mm256_add_epi32(v[5], f);
  v[6] = _mm256_add_epi32(v[6], g);
  v[7] = _mm256_add_epi32(v[7], h);
  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(column), v[j]);
    for (std::size_t l = 0; l < kSha256Lanes; ++l) states[l][static_cast<std::size_t>(j)] = column[l];
  }
}

#endif  // __x86_64__

void compress_x8_scalar(std::array<std::uint32_t, 8> states[kSha256Lanes],
                        const std::uint8_t blocks[kSha256Lanes][64]) noexcept {
  for (std::size_t l = 0; l < kSha256Lanes; ++l) sha256_compress(states[l], blocks[l]);
}

}  // namespace

const char* hash_backend_name(HashBackend backend) noexcept {
  switch (backend) {
    case HashBackend::kScalar: return "scalar";
    case HashBackend::kAvx2: return "avx2";
  }
  return "unknown";
}

HashBackend hash_backend() {
  const SimdBackend level = simd_backend();
  return level == SimdBackend::kAvx2 || level == SimdBackend::kAvx512 ? HashBackend::kAvx2
                                                                      : HashBackend::kScalar;
}

void sha256_compress_x8(std::array<std::uint32_t, 8> states[kSha256Lanes],
                        const std::uint8_t blocks[kSha256Lanes][64]) noexcept {
  switch (hash_backend()) {
#if defined(__x86_64__)
    case HashBackend::kAvx2:
      compress_x8_avx2(states, blocks);
      return;
#endif
    default:
      compress_x8_scalar(states, blocks);
      return;
  }
}

}  // namespace jrsnd::crypto
