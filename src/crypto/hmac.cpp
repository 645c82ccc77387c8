#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics_registry.hpp"

namespace jrsnd::crypto {

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> message) noexcept {
  static constexpr std::size_t kBlockSize = 64;

  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Sha256Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Sha256Digest inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finalize();
}

HmacKey::HmacKey(std::span<const std::uint8_t> key) noexcept {
  static constexpr std::size_t kBlockSize = 64;
  JRSND_COUNT("crypto.hmac.midstate.builds");

  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Sha256Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, kBlockSize> pad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
  }
  inner_.update(pad);  // one compression; cached for every later mac()
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  outer_.update(pad);
}

Sha256Digest HmacKey::mac(std::span<const std::uint8_t> message) const noexcept {
  Sha256 inner_ctx = inner_;
  inner_ctx.update(message);
  return finish(inner_ctx);
}

Sha256Digest HmacKey::mac(const std::string& message) const noexcept {
  return mac(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(message.data()),
                                           message.size()));
}

Sha256Digest HmacKey::finish(Sha256& inner_ctx) const noexcept {
  JRSND_COUNT("crypto.hmac.midstate.hits");
  const Sha256Digest inner_digest = inner_ctx.finalize();
  Sha256 outer_ctx = outer_;
  outer_ctx.update(inner_digest);
  return outer_ctx.finalize();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key, const std::string& message) noexcept {
  return hmac_sha256(key, std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(message.data()),
                              message.size()));
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) noexcept {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace jrsnd::crypto
