// Adversarial-input sweep for the batched verification pipeline: whatever a
// flooding attacker or a hostile channel puts on the air — random buffers,
// truncations at every boundary, bit flips, replays, FaultyPhy's whole
// mutation palette — the VerifyQueue must never crash, never accept a frame
// the one-shot reference rejects, and never disagree with it at all.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/dos_attacker.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "crypto/verify_queue.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_phy.hpp"
#include "oracle/crypto_reference.hpp"

namespace jrsnd::crypto {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

adversary::HandshakeFloodSource make_source(std::uint64_t rng_seed) {
  return adversary::HandshakeFloodSource(core::WireConfig{}, /*authority_seed=*/5,
                                         /*peer_count=*/8, rng_seed);
}

/// Both paths on one frame; returns the (asserted-equal) verdict stage.
VerifyStage both_paths(VerifyQueue& queue, const adversary::HandshakeFloodSource& source,
                       const BitVector& frame, std::uint32_t frame_code) {
  const VerifyResult one_shot = oracle::verify_one_shot(
      source.verify_wire(), frame, frame_code, source.expected_code(), source.key_source());
  std::vector<VerifyResult> out;
  queue.push(frame, frame_code, source.expected_code());
  queue.drain(source.key_source(), out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].stage, one_shot.stage);
  if (one_shot.stage == VerifyStage::Accept) {
    EXPECT_EQ(out[0].sender, one_shot.sender);
    EXPECT_EQ(out[0].key, one_shot.key);
  }
  return one_shot.stage;
}

TEST(VerifyQueueFuzz, RandomBuffersNeverCrashAndNeverDiverge) {
  auto source = make_source(41);
  VerifyQueue queue(source.verify_wire());
  Rng rng(1);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform(600);
    const BitVector junk = random_bits(rng, len);
    const auto code = static_cast<std::uint32_t>(rng.uniform(3));  // hits expected_code
    if (both_paths(queue, source, junk, code) == VerifyStage::Accept) ++accepted;
  }
  // Forging a valid 160-bit MAC by luck is not a thing.
  EXPECT_EQ(accepted, 0u);
}

TEST(VerifyQueueFuzz, EveryTruncationRejectsLength) {
  auto source = make_source(42);
  const auto flood = source.make_batch(1, 0);
  ASSERT_EQ(flood[0].expected_stage, VerifyStage::Accept);
  VerifyQueue queue(source.verify_wire());
  for (std::size_t cut = 0; cut < flood[0].bits.size(); ++cut) {
    const BitVector prefix = flood[0].bits.slice(0, cut);
    EXPECT_EQ(both_paths(queue, source, prefix, flood[0].frame_code),
              VerifyStage::RejectLength)
        << cut;
  }
}

TEST(VerifyQueueFuzz, SingleBitFlipsNeverValidate) {
  // Any single flip outside the type tag must land in RejectMac (the MAC
  // covers sender and nonce; flips in the MAC bits themselves included);
  // flips inside the tag are RejectFormat or RejectMac. Never Accept.
  auto source = make_source(43);
  const auto flood = source.make_batch(1, 0);
  ASSERT_EQ(flood[0].expected_stage, VerifyStage::Accept);
  const std::uint32_t l_t = source.verify_wire().l_t;
  VerifyQueue queue(source.verify_wire());
  for (std::size_t flip = 0; flip < flood[0].bits.size(); ++flip) {
    BitVector mutated = flood[0].bits;
    mutated.flip(flip);
    const VerifyStage stage = both_paths(queue, source, mutated, flood[0].frame_code);
    EXPECT_NE(stage, VerifyStage::Accept) << "flip " << flip;
    if (flip >= l_t) {
      EXPECT_EQ(stage, VerifyStage::RejectMac) << "flip " << flip;
    }
  }
}

TEST(VerifyQueueFuzz, ReplaysAreDeterministic) {
  // The pipeline is stateless per frame (the peer cache only amortizes key
  // schedules): replaying any frame, valid or not, yields the same verdict
  // every time, mixed into batches or alone.
  auto source = make_source(44);
  const auto flood = source.make_batch(24, 3);
  VerifyQueue queue(source.verify_wire());
  std::vector<VerifyResult> first, replayed;
  for (const auto& frame : flood) {
    queue.push(frame.bits, frame.frame_code, source.expected_code());
  }
  queue.drain(source.key_source(), first);
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (const auto& frame : flood) {
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    queue.drain(source.key_source(), replayed);
    for (std::size_t i = 0; i < flood.size(); ++i) {
      EXPECT_EQ(replayed[i].stage, first[i].stage) << "repeat " << repeat << " frame " << i;
    }
  }
}

/// Inner PHY for the fault-driven sweep: delivers verbatim.
class EchoPhy final : public core::PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId, NodeId, core::TxCode, core::TxClass,
                                    const BitVector& payload) override {
    return payload;
  }
};

TEST(VerifyQueueFuzz, FaultyPhyCorruptedFloodNeverCrashesOrDiverges) {
  // Drive authored flood frames through FaultyPhy with the full mutation
  // palette and batch-verify whatever comes out: the batched pipeline and
  // the one-shot reference must agree on every mutant, and no mutated
  // honest frame may still verify (any corruption breaks the MAC).
  auto source = make_source(45);
  const auto flood = source.make_batch(40, 4);

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.corrupt = 0.6;
  plan.corrupt_bits = 9;
  plan.truncate = 0.4;
  plan.duplicate = 0.3;
  plan.reorder = 0.3;
  EchoPhy inner;
  fault::FaultyPhy phy(inner, plan);

  VerifyQueue queue(source.verify_wire());
  std::vector<BitVector> mutants;
  std::vector<std::uint32_t> codes;
  std::vector<bool> must_reject;
  // A delivered frame may accept only if it is byte-for-byte some original
  // valid-MAC frame: FaultyPhy's reorder can hand back a *different* corpus
  // frame verbatim, and WrongCode frames carry valid MACs (their reject is
  // the code metadata, which reorder can swap onto an expected-code call).
  const auto is_pristine_valid = [&](const BitVector& rx) {
    for (const auto& frame : flood) {
      if ((frame.kind == adversary::FloodFrameKind::Honest ||
           frame.kind == adversary::FloodFrameKind::WrongCode) &&
          rx == frame.bits) {
        return true;
      }
    }
    return false;
  };
  for (std::uint32_t trial = 0; trial < 1200; ++trial) {
    const auto& frame = flood[trial % flood.size()];
    const auto rx = phy.transmit(node_id(trial % 5), node_id(5 + trial % 3), core::TxCode{},
                                 core::TxClass::SessionUnicast, frame.bits);
    if (!rx.has_value()) continue;
    mutants.push_back(*rx);
    codes.push_back(frame.frame_code);
    must_reject.push_back(!is_pristine_valid(*rx));
  }
  ASSERT_GT(mutants.size(), 100u);

  std::vector<VerifyResult> batched;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    queue.push(mutants[i], codes[i], source.expected_code());
  }
  queue.drain(source.key_source(), batched);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const VerifyResult one_shot = oracle::verify_one_shot(
        source.verify_wire(), mutants[i], codes[i], source.expected_code(),
        source.key_source());
    EXPECT_EQ(batched[i].stage, one_shot.stage) << i;
    if (must_reject[i]) {
      EXPECT_NE(batched[i].stage, VerifyStage::Accept) << "mutated frame " << i;
    }
  }
  // The palette actually fired — the sweep was not vacuous.
  const auto& totals = phy.totals();
  EXPECT_GT(totals.corrupted, 0u);
  EXPECT_GT(totals.truncated, 0u);
}

TEST(VerifyQueueFuzz, WordWiseMacCompareMatchesByteWiseReferenceAtEveryWidth) {
  // The MAC stage compares the wire tag 64 bits at a time. At tag widths
  // below, at and across word boundaries (7, 8, 61, 64, 160, 256 bits), an
  // honest frame and each of its single-bit tag flips get the byte-wise
  // reference's verdict on both the one-frame and the batched path, and
  // every flip is a MAC reject.
  for (const std::uint32_t l_mac : {7u, 8u, 61u, 64u, 160u, 256u}) {
    core::WireConfig wire;
    wire.l_mac = l_mac;
    adversary::HandshakeFloodSource source(wire, /*authority_seed=*/5, /*peer_count=*/8,
                                           /*rng_seed=*/l_mac);
    VerifyQueue queue(source.verify_wire());
    const std::size_t mac_off = std::size_t{wire.l_t} + wire.l_id + wire.l_n;
    for (const adversary::FloodFrame& honest : source.make_batch(3, /*ratio=*/0)) {
      ASSERT_EQ(honest.bits.size(), mac_off + l_mac);
      for (std::size_t flip = 0; flip <= l_mac; ++flip) {
        BitVector frame = honest.bits;
        if (flip < l_mac) frame.flip(mac_off + flip);  // flip == l_mac: unflipped
        const VerifyStage expected = flip < l_mac ? VerifyStage::RejectMac : VerifyStage::Accept;
        ASSERT_EQ(both_paths(queue, source, frame, source.expected_code()), expected)
            << "l_mac " << l_mac << " flip " << flip;
        const VerifyResult now = queue.verify_now(frame, source.expected_code(),
                                                  source.expected_code(), source.key_source());
        ASSERT_EQ(now.stage, expected) << "l_mac " << l_mac << " flip " << flip;
      }
    }
  }
}

}  // namespace
}  // namespace jrsnd::crypto
