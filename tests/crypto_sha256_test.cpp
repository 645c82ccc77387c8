#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_multi.hpp"

namespace jrsnd::crypto {
namespace {

std::string digest_hex(const Sha256Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

/// Deterministic message bytes: byte i of every test message.
std::vector<std::uint8_t> pattern_message(std::size_t len) {
  std::vector<std::uint8_t> msg(len);
  for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  return msg;
}

/// SHA-256 over the concatenated digests of `digest_of(len)` for every len
/// in [0, max_len]: one fold pins every padding case a length range covers.
template <typename DigestOf>
std::string fold_hex(std::size_t max_len, DigestOf digest_of) {
  Sha256 fold;
  for (std::size_t len = 0; len <= max_len; ++len) fold.update(digest_of(pattern_message(len)));
  return digest_hex(fold.finalize());
}

std::string hash_lengths_fold() {
  return fold_hex(200, [](const std::vector<std::uint8_t>& m) { return Sha256::hash(m); });
}

std::string mac_lengths_fold() {
  const HmacKey key(pattern_message(32));
  return fold_hex(120, [&](const std::vector<std::uint8_t>& m) { return key.mac(m); });
}

// Recorded from the library and checked against Python's hashlib/hmac over
// the same messages. Lengths 0-200 cross the 55/56 and 63/64 padding
// boundaries three times; the MAC range 0-120 covers one- and two-block
// inner messages.
constexpr const char* kHashLengthsFold =
    "2596dc78bf91fcc2d7cdba569d85e7c20f5d24bdc74fb082da12c7272515aa28";
constexpr const char* kMacLengthsFold =
    "39e09f1cbfd46a34c51f827cb2f0b91ab5cfb2cb442b8dca57fd929e237ce3f5";

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                std::string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding requires a full extra block.
  const std::string msg(64, 'x');
  EXPECT_EQ(Sha256::hash(msg), Sha256::hash(msg));  // determinism
  // Cross-check via incremental update in odd chunk sizes.
  Sha256 ctx;
  ctx.update(msg.substr(0, 13));
  ctx.update(msg.substr(13, 50));
  ctx.update(msg.substr(63));
  EXPECT_EQ(ctx.finalize(), Sha256::hash(msg));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits in the same block as the 0x80 pad byte;
  // 56 bytes: it does not. Both are classic off-by-one traps.
  const std::string m55(55, 'q');
  const std::string m56(56, 'q');
  Sha256 a;
  a.update(m55);
  Sha256 b;
  b.update(m56);
  EXPECT_NE(a.finalize(), b.finalize());
  // Known vector: 55 * 'a'.
  EXPECT_EQ(digest_hex(Sha256::hash(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(msg.substr(0, split));
    ctx.update(msg.substr(split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, EmptyUpdateBetweenPartialUpdatesIsANoOp) {
  // A default span has a null data(); with bytes already buffered, the
  // update must not touch it (memcpy from null is undefined even for 0).
  const std::string msg = "partial blocks on both sides";
  Sha256 ctx;
  ctx.update(msg.substr(0, 11));
  ctx.update(std::span<const std::uint8_t>{});
  ctx.update(msg.substr(11));
  EXPECT_EQ(ctx.finalize(), Sha256::hash(msg));
}

TEST(Sha256, ResetReusesContext) {
  Sha256 ctx;
  ctx.update(std::string("garbage"));
  (void)ctx.finalize();
  ctx.reset();
  ctx.update(std::string("abc"));
  EXPECT_EQ(digest_hex(ctx.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DigestsOfEveryLengthAreUnchanged) {
  EXPECT_EQ(hash_lengths_fold(), kHashLengthsFold);
}

TEST(Sha256, HmacDigestsOfEveryLengthAreUnchanged) {
  EXPECT_EQ(mac_lengths_fold(), kMacLengthsFold);
}

TEST(Sha256, SingleBitChangesAvalanche) {
  std::vector<std::uint8_t> a(32, 0);
  std::vector<std::uint8_t> b = a;
  b[0] ^= 1;
  const Sha256Digest da = Sha256::hash(a);
  const Sha256Digest db = Sha256::hash(b);
  int differing_bits = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    differing_bits += __builtin_popcount(static_cast<unsigned>(da[i] ^ db[i]));
  }
  // Expect roughly half of 256 bits to flip.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

// ---------------------------------------------------------------------------
// The SHA-NI compression against the scalar body. The backend follows the
// SIMD level, so each test switches levels with set_simd_backend: the best
// level the host admits runs SHA-NI, kScalar runs the scalar body.

/// Restores the SIMD level a test found on scope exit.
class ScopedLevel {
 public:
  ScopedLevel() : previous_(simd_backend()) {}
  ~ScopedLevel() { set_simd_backend(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  SimdBackend previous_;
};

/// Installs the best level the host admits (a kAvx512 request clamps down).
/// True when that level runs SHA-NI.
bool use_sha_ni() {
  set_simd_backend(SimdBackend::kAvx512);
  return sha256_backend() == Sha256Backend::kShaNi;
}

void use_scalar() {
  ASSERT_EQ(set_simd_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  ASSERT_EQ(sha256_backend(), Sha256Backend::kScalar);
}

#define SKIP_WITHOUT_SHA_NI()                                                         \
  ScopedLevel restore_level;                                                          \
  if (!cpu_features().sha) GTEST_SKIP() << "no SHA extensions on this host";          \
  if (!use_sha_ni()) GTEST_SKIP() << "no non-scalar SIMD level to run SHA-NI under"

/// Runs `body` once at the scalar level, then once on SHA-NI.
void at_both_levels(const std::function<void(const char*)>& body) {
  use_scalar();
  body("scalar");
  ASSERT_TRUE(use_sha_ni());
  body("sha-ni");
}

TEST(Sha256Dispatch, NamesAreStable) {
  EXPECT_STREQ(sha256_backend_name(Sha256Backend::kScalar), "scalar");
  EXPECT_STREQ(sha256_backend_name(Sha256Backend::kShaNi), "sha-ni");
}

TEST(Sha256Dispatch, FollowsTheProbeAtEveryLevel) {
  ScopedLevel restore_level;
  for (const SimdBackend request :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512, SimdBackend::kNeon}) {
    const SimdBackend installed = set_simd_backend(request);
    const bool sha_ni = cpu_features().sha && installed != SimdBackend::kScalar;
    EXPECT_EQ(sha256_backend(), sha_ni ? Sha256Backend::kShaNi : Sha256Backend::kScalar)
        << simd_backend_name(installed);
  }
}

#if defined(__linux__) && defined(__x86_64__)
TEST(Sha256Dispatch, ProbeAgreesWithProcCpuinfo) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  if (!cpuinfo) GTEST_SKIP() << "/proc/cpuinfo unreadable";
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    bool sha_ni = false;
    bool sse4_1 = false;
    for (std::string flag; words >> flag;) {
      sha_ni = sha_ni || flag == "sha_ni";
      sse4_1 = sse4_1 || flag == "sse4_1";
    }
    EXPECT_EQ(cpu_features().sha, sha_ni && sse4_1) << line;
    return;
  }
  GTEST_SKIP() << "no flags line in /proc/cpuinfo";
}
#endif

TEST(Sha256ShaNi, FipsVectorsAtBothLevels) {
  SKIP_WITHOUT_SHA_NI();
  at_both_levels([](const char* level) {
    SCOPED_TRACE(level);
    EXPECT_EQ(digest_hex(Sha256::hash(std::string(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digest_hex(Sha256::hash(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(digest_hex(Sha256::hash(
                  std::string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    Sha256 million;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) million.update(chunk);
    EXPECT_EQ(digest_hex(million.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    // The padding boundaries: the length fits beside the 0x80 byte (55),
    // spills into a second block (56, 63), or follows a full block (64).
    EXPECT_EQ(digest_hex(Sha256::hash(std::string(55, 'a'))),
              "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    EXPECT_EQ(digest_hex(Sha256::hash(std::string(56, 'a'))),
              "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    EXPECT_EQ(digest_hex(Sha256::hash(std::string(63, 'a'))),
              "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
    EXPECT_EQ(digest_hex(Sha256::hash(std::string(64, 'a'))),
              "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
    EXPECT_EQ(hash_lengths_fold(), kHashLengthsFold);
    EXPECT_EQ(mac_lengths_fold(), kMacLengthsFold);
  });
}

TEST(Sha256ShaNi, RandomChainsMatchScalarBody) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(24);
  for (int chain = 0; chain < 1024; ++chain) {
    std::array<std::uint32_t, 8> start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next());
    std::vector<std::uint8_t> blocks(64 * (1 + rng.uniform(4)));
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng.uniform(256));

    std::array<std::array<std::uint32_t, 8>, 2> end{start, start};
    for (int level = 0; level < 2; ++level) {
      if (level == 0) {
        use_scalar();
      } else {
        ASSERT_TRUE(use_sha_ni());
      }
      for (std::size_t off = 0; off < blocks.size(); off += 64) {
        sha256_compress(end[static_cast<std::size_t>(level)], blocks.data() + off);
      }
    }
    ASSERT_EQ(end[1], end[0]) << "chain " << chain << " of " << blocks.size() / 64 << " blocks";
  }
}

TEST(Sha256ShaNi, UnalignedIncrementalMatchesScalarOneShot) {
  SKIP_WITHOUT_SHA_NI();
  // One byte of slack in front: the message starts at every offset 0-3
  // from the allocation, so the SHA-NI loads see unaligned blocks.
  std::vector<std::uint8_t> storage(4 + 300);
  for (std::size_t i = 0; i < storage.size(); ++i) storage[i] = static_cast<std::uint8_t>(i * 7);
  for (std::size_t shift = 0; shift < 4; ++shift) {
    const std::span<const std::uint8_t> msg(storage.data() + shift, 300);
    use_scalar();
    const Sha256Digest want = Sha256::hash(msg);
    ASSERT_TRUE(use_sha_ni());
    EXPECT_EQ(Sha256::hash(msg), want) << "shift " << shift;
    for (std::size_t a = 0; a <= msg.size(); a += 13) {
      for (std::size_t b = a; b <= msg.size(); b += 29) {
        Sha256 ctx;
        ctx.update(msg.subspan(0, a));
        ctx.update(msg.subspan(a, b - a));
        ctx.update(msg.subspan(b));
        EXPECT_EQ(ctx.finalize(), want) << "shift " << shift << " splits " << a << "," << b;
      }
    }
  }
}

TEST(Sha256ShaNi, HmacMidstatesMatchAcrossLevels) {
  SKIP_WITHOUT_SHA_NI();
  // Short, block-sized and hashed (longer than a block) keys.
  for (const std::size_t key_len : {0U, 16U, 32U, 64U, 65U, 100U}) {
    const std::vector<std::uint8_t> key = pattern_message(key_len);
    use_scalar();
    const HmacKey scalar_key(key);
    ASSERT_TRUE(use_sha_ni());
    const HmacKey sha_ni_key(key);
    EXPECT_EQ(sha_ni_key.inner_context().chaining_state(),
              scalar_key.inner_context().chaining_state())
        << "key " << key_len;
    for (std::size_t len = 0; len <= 120; len += 17) {
      const std::vector<std::uint8_t> msg = pattern_message(len);
      const Sha256Digest sha_ni_mac = sha_ni_key.mac(msg);
      use_scalar();
      EXPECT_EQ(sha_ni_mac, scalar_key.mac(msg)) << "key " << key_len << " msg " << len;
      ASSERT_TRUE(use_sha_ni());
    }
  }
}

TEST(Sha256ShaNi, MacX8AndLeftoverLanesMatchScalarAtBothLevels) {
  SKIP_WITHOUT_SHA_NI();
  // VerifyQueue's shape: full groups of eight through mac_x8 (the lanes'
  // backend), the leftover frames one mac() each (sha256_compress's).
  Rng rng(25);
  std::vector<HmacKey> keys;
  for (std::size_t k = 0; k < 3; ++k) keys.emplace_back(pattern_message(16 + k));
  constexpr std::size_t kFrames = 2 * kSha256Lanes + 5;
  std::vector<std::vector<std::uint8_t>> msgs(kFrames);
  for (auto& m : msgs) {
    m.resize(rng.uniform(kMaxSingleBlockMessage + 1));
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  const auto key_of = [&](std::size_t i) -> const HmacKey& { return keys[i % keys.size()]; };

  use_scalar();
  std::vector<Sha256Digest> want(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) want[i] = key_of(i).mac(msgs[i]);

  at_both_levels([&](const char* level) {
    SCOPED_TRACE(level);
    std::size_t i = 0;
    for (; i + kSha256Lanes <= kFrames; i += kSha256Lanes) {
      const HmacKey* lane_keys[kSha256Lanes];
      const std::uint8_t* lane_msgs[kSha256Lanes];
      std::size_t lane_lens[kSha256Lanes];
      for (std::size_t l = 0; l < kSha256Lanes; ++l) {
        lane_keys[l] = &key_of(i + l);
        lane_msgs[l] = msgs[i + l].data();
        lane_lens[l] = msgs[i + l].size();
      }
      Sha256Digest out[kSha256Lanes];
      HmacKey::mac_x8(lane_keys, lane_msgs, lane_lens, out);
      for (std::size_t l = 0; l < kSha256Lanes; ++l) EXPECT_EQ(out[l], want[i + l]) << i + l;
    }
    for (; i < kFrames; ++i) EXPECT_EQ(key_of(i).mac(msgs[i]), want[i]) << "leftover " << i;
  });
}

}  // namespace
}  // namespace jrsnd::crypto
