#include "predist/provisioning.hpp"

#include <cstring>

#include "crypto/sha256.hpp"

namespace jrsnd::predist {

namespace {

constexpr std::uint8_t kVersion = 1;
constexpr char kMagic[4] = {'J', 'R', 'S', 'P'};
constexpr std::size_t kChecksumBytes = 8;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool read_u32(std::uint32_t& out) {
    if (pos_ + 4 > bytes_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out = (out << 8) | bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool read_u8(std::uint8_t& out) {
    if (pos_ >= bytes_.size()) return false;
    out = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool read_span(std::size_t n, std::span<const std::uint8_t>& out) {
    if (pos_ + n > bytes_.size()) return false;
    out = bytes_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> NodeProvisioning::serialize() const {
  // Built from the magic rather than inserted into an empty vector, which
  // GCC 12 flags as a -Wstringop-overflow.
  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  out.push_back(kVersion);
  append_u32(out, raw(id));
  append_u32(out, static_cast<std::uint32_t>(code_length_chips));
  append_u32(out, static_cast<std::uint32_t>(code_ids.size()));
  for (std::size_t i = 0; i < code_ids.size(); ++i) {
    append_u32(out, raw(code_ids[i]));
    const std::vector<std::uint8_t> pattern = code_patterns[i].to_bytes();
    out.insert(out.end(), pattern.begin(), pattern.end());
  }
  const crypto::Sha256Digest digest = crypto::Sha256::hash(out);
  out.insert(out.end(), digest.begin(), digest.begin() + kChecksumBytes);
  return out;
}

std::optional<NodeProvisioning> NodeProvisioning::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 + 1 + 12 + kChecksumBytes) return std::nullopt;
  // Verify checksum over everything but the trailing 8 bytes.
  const std::size_t body_len = bytes.size() - kChecksumBytes;
  const crypto::Sha256Digest digest = crypto::Sha256::hash(bytes.subspan(0, body_len));
  if (std::memcmp(digest.data(), bytes.data() + body_len, kChecksumBytes) != 0) {
    return std::nullopt;
  }

  Reader r(bytes.subspan(0, body_len));
  std::span<const std::uint8_t> magic;
  if (!r.read_span(4, magic) || std::memcmp(magic.data(), kMagic, 4) != 0) return std::nullopt;
  std::uint8_t version = 0;
  if (!r.read_u8(version) || version != kVersion) return std::nullopt;

  NodeProvisioning out;
  std::uint32_t raw_id = 0;
  std::uint32_t chips = 0;
  std::uint32_t count = 0;
  if (!r.read_u32(raw_id) || !r.read_u32(chips) || !r.read_u32(count)) return std::nullopt;
  if (chips == 0) return std::nullopt;
  out.id = node_id(raw_id);
  out.code_length_chips = chips;
  const std::size_t pattern_bytes = (std::size_t{chips} + 7) / 8;  // no 32-bit wrap
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t code = 0;
    std::span<const std::uint8_t> pattern;
    if (!r.read_u32(code) || !r.read_span(pattern_bytes, pattern)) return std::nullopt;
    out.code_ids.push_back(code_id(code));
    out.code_patterns.push_back(BitVector::from_bytes(pattern).slice(0, chips));
  }
  if (r.remaining() != 0) return std::nullopt;  // trailing garbage
  return out;
}

NodeProvisioning provision_node(const CodePoolAuthority& authority, NodeId id) {
  NodeProvisioning blob;
  blob.id = id;
  blob.code_length_chips = authority.params().code_length_chips;
  for (const CodeId code : authority.assignment().codes_of(id)) {
    blob.code_ids.push_back(code);
    blob.code_patterns.push_back(authority.code(code).bits());
  }
  return blob;
}

}  // namespace jrsnd::predist
