#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.hpp"

namespace jrsnd::crypto {
namespace {

std::string digest_hex(const Sha256Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

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

}  // namespace
}  // namespace jrsnd::crypto
