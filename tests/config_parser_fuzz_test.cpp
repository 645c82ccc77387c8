// Robustness of the two offline-input parsers: fault-plan JSON and node
// provisioning blobs. Seeded random bytes, byte flips, truncations, splices
// and hostile length fields must never crash either parser. A fault plan
// the parser accepts must be valid and survive its own to_json unchanged;
// a provisioning blob with a forged length must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "fault/fault_plan.hpp"
#include "predist/authority.hpp"
#include "predist/provisioning.hpp"

namespace jrsnd {
namespace {

// --- FaultPlan::from_json ------------------------------------------------------

/// Plans whose to_json texts seed the mutations: every key, fractional and
/// scientific numbers, and a crash list.
std::vector<std::string> seed_plan_texts() {
  fault::FaultPlan full;
  full.seed = 7;
  full.drop = 0.05;
  full.duplicate = 0.25;
  full.reorder = 0.125;
  full.corrupt = 0.1;
  full.corrupt_bits = 8;
  full.truncate = 1e-05;
  full.clock_skew_max = 0.002;
  full.clock_drift_max = 0.0001;
  full.auto_tick = 0.01;
  full.crashes.push_back({node_id(3), TimePoint{0.5}, Duration{1.0}});
  full.crashes.push_back({node_id(12), TimePoint{2.0}, Duration{0.75}});
  fault::FaultPlan drop_only;
  drop_only.seed = 9;
  drop_only.drop = 0.5;
  return {full.to_json(), drop_only.to_json(), fault::FaultPlan{}.to_json()};
}

/// from_json on `text`: a plan it accepts must be valid and come back equal
/// from its own to_json. Returns whether `text` was accepted.
bool check_plan_text(std::string_view text) {
  std::string error;
  const auto plan = fault::FaultPlan::from_json(text, &error);
  if (!plan.has_value()) {
    EXPECT_FALSE(error.empty()) << "rejected without a reason: " << text;
    return false;
  }
  EXPECT_FALSE(plan->validate().has_value()) << text;
  const std::string json = plan->to_json();
  const auto again = fault::FaultPlan::from_json(json);
  EXPECT_TRUE(again.has_value() && *again == *plan) << text << " -> " << json;
  return true;
}

/// A byte a JSON mutation is likely to produce: structure, digits, signs.
char json_byte(Rng& rng) {
  static constexpr std::string_view kAlphabet = "{}[]\":,.-+eE0123456789 ";
  return kAlphabet[rng.uniform(kAlphabet.size())];
}

TEST(FaultPlanFuzz, RandomBytesNeverCrash) {
  Rng rng(101);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text(rng.uniform(200), '\0');
    const bool json_like = trial % 2 == 0;
    for (char& c : text) {
      c = json_like ? json_byte(rng) : static_cast<char>(rng.uniform(256));
    }
    (void)check_plan_text(text);
  }
}

TEST(FaultPlanFuzz, EveryTruncationOfAValidPlan) {
  for (const std::string& text : seed_plan_texts()) {
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
      (void)check_plan_text(std::string_view(text).substr(0, cut));
    }
  }
}

TEST(FaultPlanFuzz, ByteFlipsOfAValidPlan) {
  Rng rng(102);
  const std::vector<std::string> texts = seed_plan_texts();
  std::size_t accepted = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string text = texts[rng.uniform(texts.size())];
    const std::size_t flips = 1 + rng.uniform(3);
    const bool digits_only = trial % 2 == 0;  // keeps most plans parseable
    for (std::size_t f = 0; f < flips; ++f) {
      char& c = text[rng.uniform(text.size())];
      if (digits_only) {
        if (std::isdigit(static_cast<unsigned char>(c))) c = "0123456789"[rng.uniform(10)];
      } else {
        c = rng.bernoulli(0.5) ? json_byte(rng) : static_cast<char>(rng.uniform(256));
      }
    }
    accepted += check_plan_text(text);
  }
  // The round trip is really exercised, not just the reject paths.
  EXPECT_GT(accepted, 1000u);
}

TEST(FaultPlanFuzz, SplicesOfValidPlans) {
  Rng rng(103);
  const std::vector<std::string> texts = seed_plan_texts();
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string& head = texts[rng.uniform(texts.size())];
    const std::string& tail = texts[rng.uniform(texts.size())];
    const std::string text =
        head.substr(0, rng.uniform(head.size() + 1)) + tail.substr(rng.uniform(tail.size() + 1));
    accepted += check_plan_text(text);
  }
  EXPECT_GT(accepted, 0u);
}

TEST(FaultPlanFuzz, OutOfRangeIntegersAreRejected) {
  // Integer fields parse as integers of their own width: no wrap, no
  // truncated fraction, no double rounding of a 64-bit seed.
  for (const std::string_view text :
       {R"({"seed":-1})", R"({"seed":1.5})", R"({"seed":1e3})", R"({"seed":18446744073709551616})",
        R"({"corrupt_bits":4294967296})", R"({"corrupt_bits":-3})", R"({"corrupt_bits":2.5})",
        R"({"crashes":[{"node":4294967296,"duration":1}]})",
        R"({"crashes":[{"node":-1,"duration":1}]})"}) {
    EXPECT_FALSE(check_plan_text(text)) << text;
  }
  EXPECT_TRUE(check_plan_text(R"({"seed":18446744073709551615,"drop":0.1234567891})"));
}

// --- NodeProvisioning::parse ---------------------------------------------------

constexpr std::size_t kChecksumBytes = 8;
constexpr std::size_t kChipsOffset = 9;   // after magic (4), version (1), node id (4)
constexpr std::size_t kCountOffset = 13;  // after the chip length

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

/// Replaces the trailing checksum with the right one for the bytes before it.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::size_t body = blob.size() - kChecksumBytes;
  const crypto::Sha256Digest digest =
      crypto::Sha256::hash(std::span<const std::uint8_t>(blob.data(), body));
  std::copy_n(digest.begin(), kChecksumBytes, blob.begin() + static_cast<std::ptrdiff_t>(body));
}

void put_u32(std::vector<std::uint8_t>& blob, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    blob[at + i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  }
}

std::vector<std::uint8_t> valid_blob() {
  predist::PredistParams params;
  params.node_count = 8;
  params.codes_per_node = 4;
  params.holders_per_code = 4;
  params.code_length_chips = 100;  // not a byte multiple: the last byte is partial
  const predist::CodePoolAuthority authority(params, Rng(5));
  return predist::provision_node(authority, node_id(2)).serialize();
}

TEST(ProvisioningFuzz, ValidBlobParses) {
  EXPECT_TRUE(predist::NodeProvisioning::parse(valid_blob()).has_value());
}

TEST(ProvisioningFuzz, RandomBuffersAreRejected) {
  Rng rng(104);
  const std::vector<std::uint8_t> blob = valid_blob();
  const std::vector<std::uint8_t> header(blob.begin(), blob.begin() + 5);  // magic, version
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buf = random_bytes(rng, rng.uniform(400));
    EXPECT_FALSE(predist::NodeProvisioning::parse(buf).has_value()) << trial;
    // Past the checksum: a correct checksum over random bytes, half of them
    // behind a valid magic and version so the length fields get parsed.
    if (buf.size() < header.size() + kChecksumBytes) continue;
    if (trial % 2 == 0) std::copy(header.begin(), header.end(), buf.begin());
    reseal(buf);
    EXPECT_FALSE(predist::NodeProvisioning::parse(buf).has_value()) << trial;
  }
}

TEST(ProvisioningFuzz, HostileLengthsAreRejected) {
  const std::vector<std::uint8_t> blob = valid_blob();
  // Each chip length changes the pattern size in bytes, so the entries no
  // longer line up with the blob; the huge ones overflow a 32-bit ceil(N/8).
  for (const std::uint32_t chips : {0u, 1u, 108u, 200u, 0x7FFFFFFFu, 0xFFFFFFF9u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> forged = blob;
    put_u32(forged, kChipsOffset, chips);
    reseal(forged);
    EXPECT_FALSE(predist::NodeProvisioning::parse(forged).has_value()) << chips;
  }
  for (const std::uint32_t count : {0u, 3u, 5u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> forged = blob;
    put_u32(forged, kCountOffset, count);
    reseal(forged);
    EXPECT_FALSE(predist::NodeProvisioning::parse(forged).has_value()) << count;
  }
}

TEST(ProvisioningFuzz, EveryResealedTruncationIsRejected) {
  const std::vector<std::uint8_t> blob = valid_blob();
  for (std::size_t cut = kChecksumBytes; cut < blob.size(); ++cut) {
    std::vector<std::uint8_t> forged(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    reseal(forged);
    EXPECT_FALSE(predist::NodeProvisioning::parse(forged).has_value()) << cut;
  }
}

}  // namespace
}  // namespace jrsnd
