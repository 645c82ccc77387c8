// Property tests for the batched handshake-verification pipeline: the
// batched drain must be bit-identical — verdicts, senders, accepted keys,
// and every per-stage decision counter — to verify_one_shot, the historical
// one-at-a-time reference, on any flood mix. Plus: the multi-buffer SHA-256
// lanes against the scalar compression, MAC-stage amortization invariants,
// and thread-count invariance of the whole pipeline (the VerifyQueue*
// suites below also run under TSan in CI).
#include "crypto/verify_queue.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "adversary/dos_attacker.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/messages.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_multi.hpp"
#include "obs/metrics_registry.hpp"
#include "oracle/crypto_reference.hpp"

namespace jrsnd::crypto {
namespace {

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot, const char* name) {
  for (const auto& sample : snapshot.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// The six counters that define the decision identity between the batched
/// and one-shot paths. Cache/batch-shape counters (crypto.verify.batches,
/// peer_cache.*, hmac.midstate.*) intentionally differ.
constexpr const char* kDecisionCounters[] = {
    "crypto.verify.frames", "crypto.verify.accepted", "crypto.reject.length",
    "crypto.reject.format", "crypto.reject.code",     "crypto.reject.mac"};

adversary::HandshakeFloodSource make_source(std::uint64_t rng_seed = 11) {
  return adversary::HandshakeFloodSource(core::WireConfig{}, /*authority_seed=*/5,
                                         /*peer_count=*/8, rng_seed);
}

TEST(VerifyQueueProperty, BatchedVerdictsMatchOneShotAcrossRatios) {
  auto source = make_source();
  for (const std::uint32_t ratio : {0u, 1u, 3u, 10u, 50u}) {
    const auto flood = source.make_batch(200, ratio);
    VerifyQueue queue(source.verify_wire());
    std::vector<VerifyResult> batched;
    for (const auto& frame : flood) {
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    queue.drain(source.key_source(), batched);
    ASSERT_EQ(batched.size(), flood.size());

    for (std::size_t i = 0; i < flood.size(); ++i) {
      const VerifyResult one_shot = oracle::verify_one_shot(
          source.verify_wire(), flood[i].bits, flood[i].frame_code, source.expected_code(),
          source.key_source());
      EXPECT_EQ(batched[i].stage, one_shot.stage)
          << "ratio=" << ratio << " frame=" << i << " kind="
          << adversary::flood_frame_kind_name(flood[i].kind);
      EXPECT_EQ(batched[i].stage, flood[i].expected_stage);
      if (one_shot.stage == VerifyStage::Accept) {
        EXPECT_EQ(batched[i].sender, one_shot.sender);
        EXPECT_EQ(batched[i].key, one_shot.key);
      }
    }
  }
}

TEST(VerifyQueueProperty, DecisionCountersMatchOneShot) {
  auto source = make_source(12);
  const auto flood = source.make_batch(330, 10);
  obs::set_metrics_enabled(true);

  obs::MetricsRegistry one_shot_registry;
  {
    obs::ScopedMetricsRegistry scoped(&one_shot_registry);
    for (const auto& frame : flood) {
      (void)oracle::verify_one_shot(source.verify_wire(), frame.bits, frame.frame_code,
                                    source.expected_code(), source.key_source());
    }
  }

  obs::MetricsRegistry batched_registry;
  {
    obs::ScopedMetricsRegistry scoped(&batched_registry);
    VerifyQueue queue(source.verify_wire());
    std::vector<VerifyResult> out;
    // Uneven chunk sizes cover batch boundaries (1, 3, 7, 15, ...).
    std::size_t i = 0, chunk = 1;
    while (i < flood.size()) {
      const std::size_t end = std::min(flood.size(), i + chunk);
      for (; i < end; ++i) queue.push(flood[i].bits, flood[i].frame_code, source.expected_code());
      queue.drain(source.key_source(), out);
      chunk = chunk * 2 + 1;
    }
  }

  const obs::MetricsSnapshot a = one_shot_registry.snapshot();
  const obs::MetricsSnapshot b = batched_registry.snapshot();
  for (const char* name : kDecisionCounters) {
    EXPECT_EQ(counter_value(a, name), counter_value(b, name)) << name;
  }
  EXPECT_EQ(counter_value(a, "crypto.verify.frames"), flood.size());
}

TEST(VerifyQueueProperty, FloodGenerationIsDeterministic) {
  // Two sources built from the same seeds must author bit-identical floods —
  // zero RNG divergence between the batches fed to each path in the tests
  // and benches that compare them.
  auto a = make_source(99);
  auto b = make_source(99);
  const auto flood_a = a.make_batch(120, 10);
  const auto flood_b = b.make_batch(120, 10);
  ASSERT_EQ(flood_a.size(), flood_b.size());
  for (std::size_t i = 0; i < flood_a.size(); ++i) {
    EXPECT_EQ(flood_a[i].bits, flood_b[i].bits) << i;
    EXPECT_EQ(flood_a[i].frame_code, flood_b[i].frame_code) << i;
    EXPECT_EQ(flood_a[i].kind, flood_b[i].kind) << i;
  }
}

TEST(VerifyQueueProperty, CheapRejectsNeverTouchCrypto) {
  // A flood of length/format/code rejects must resolve without building a
  // single key schedule or touching the peer cache: the cheap stages are the
  // whole pipeline for them.
  auto source = make_source(13);
  const auto flood = source.make_batch(90, 89);  // 1 honest + 89 attackers
  obs::set_metrics_enabled(true);
  // Constructed outside the scoped registry: the queue ctor default-builds
  // the overflow slot's (empty-key) midstate, which is setup, not work.
  VerifyQueue queue(source.verify_wire());
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scoped(&registry);
    std::vector<VerifyResult> out;
    for (const auto& frame : flood) {
      if (frame.expected_stage == VerifyStage::RejectMac ||
          frame.expected_stage == VerifyStage::Accept) {
        continue;  // keep only the pre-MAC rejects
      }
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    ASSERT_GT(queue.pending(), 0u);
    EXPECT_EQ(queue.drain(source.key_source(), out), 0u);
  }
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(counter_value(snapshot, "crypto.hmac.midstate.builds"), 0u);
  EXPECT_EQ(counter_value(snapshot, "crypto.hmac.midstate.hits"), 0u);
  EXPECT_EQ(counter_value(snapshot, "crypto.verify.peer_cache.hits"), 0u);
  EXPECT_EQ(counter_value(snapshot, "crypto.verify.peer_cache.misses"), 0u);
  EXPECT_EQ(counter_value(snapshot, "crypto.verify.accepted"), 0u);
}

TEST(VerifyQueueProperty, PeerCacheAmortizesKeySchedules) {
  // Second drain of the same peers: every MAC-stage frame is a cache hit and
  // no new midstate is built — the per-peer setup cost is paid once.
  auto source = make_source(14);
  const auto flood = source.make_batch(64, 0);  // all honest, 8 peers
  obs::set_metrics_enabled(true);
  VerifyQueue queue(source.verify_wire());
  std::vector<VerifyResult> out;

  auto drain_once = [&](obs::MetricsRegistry& registry) {
    obs::ScopedMetricsRegistry scoped(&registry);
    for (const auto& frame : flood) {
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    return queue.drain(source.key_source(), out);
  };

  obs::MetricsRegistry cold, warm;
  EXPECT_EQ(drain_once(cold), flood.size());
  EXPECT_EQ(drain_once(warm), flood.size());

  const obs::MetricsSnapshot cold_s = cold.snapshot();
  const obs::MetricsSnapshot warm_s = warm.snapshot();
  EXPECT_GT(counter_value(cold_s, "crypto.verify.peer_cache.misses"), 0u);
  EXPECT_EQ(counter_value(cold_s, "crypto.verify.peer_cache.misses"),
            counter_value(cold_s, "crypto.hmac.midstate.builds"));
  EXPECT_EQ(counter_value(warm_s, "crypto.verify.peer_cache.misses"), 0u);
  EXPECT_EQ(counter_value(warm_s, "crypto.hmac.midstate.builds"), 0u);
  // Resolutions happen once per peer *group* per drain (that is the whole
  // amortization), so the warm drain records one hit per distinct peer.
  EXPECT_EQ(counter_value(warm_s, "crypto.verify.peer_cache.hits"), 8u);
  EXPECT_EQ(queue.cached_peers(), 8u);
}

TEST(VerifyQueueSimd, CompressX8MatchesScalarPerLane) {
  // The multi-buffer compression must equal crypto::sha256_compress lane by
  // lane on random states and blocks, on whichever backend dispatch picked.
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint32_t, 8> states[kSha256Lanes];
    std::uint8_t blocks[kSha256Lanes][64];
    std::array<std::uint32_t, 8> reference[kSha256Lanes];
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      for (auto& word : states[l]) word = static_cast<std::uint32_t>(rng.next());
      for (auto& byte : blocks[l]) byte = static_cast<std::uint8_t>(rng.uniform(256));
      reference[l] = states[l];
      sha256_compress(reference[l], blocks[l]);
    }
    sha256_compress_x8(states, blocks);
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      EXPECT_EQ(states[l], reference[l]) << "trial " << trial << " lane " << l;
    }
  }
}

TEST(VerifyQueueSimd, Avx2BackendMatchesForcedScalar) {
  if (!simd_backend_supported(SimdBackend::kAvx2)) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  const SimdBackend previous = simd_backend();
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    std::array<std::uint32_t, 8> avx_states[kSha256Lanes];
    std::array<std::uint32_t, 8> scalar_states[kSha256Lanes];
    std::uint8_t blocks[kSha256Lanes][64];
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      for (auto& word : avx_states[l]) word = static_cast<std::uint32_t>(rng.next());
      for (auto& byte : blocks[l]) byte = static_cast<std::uint8_t>(rng.uniform(256));
      scalar_states[l] = avx_states[l];
    }
    ASSERT_EQ(set_simd_backend(SimdBackend::kAvx2), SimdBackend::kAvx2);
    ASSERT_EQ(hash_backend(), HashBackend::kAvx2);
    sha256_compress_x8(avx_states, blocks);
    ASSERT_EQ(set_simd_backend(SimdBackend::kScalar), SimdBackend::kScalar);
    ASSERT_EQ(hash_backend(), HashBackend::kScalar);
    sha256_compress_x8(scalar_states, blocks);
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      EXPECT_EQ(avx_states[l], scalar_states[l]) << "trial " << trial << " lane " << l;
    }
  }
  set_simd_backend(previous);
}

// One SIMD level governs both kernels: forcing it to scalar must move the
// hash lanes too (not only the sync correlator), publish the shared gauge
// even with metrics off, and leave the digests on the per-lane reference.
TEST(VerifyQueueSimd, ForcedScalarLevelReachesHashLanes) {
  const SimdBackend previous = simd_backend();
  obs::set_metrics_enabled(false);
  ASSERT_EQ(set_simd_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  EXPECT_EQ(hash_backend(), HashBackend::kScalar);
  EXPECT_EQ(obs::registry().gauge("simd.backend").value(),
            static_cast<double>(SimdBackend::kScalar));

  Rng rng(33);
  std::array<std::uint32_t, 8> states[kSha256Lanes];
  std::array<std::uint32_t, 8> reference[kSha256Lanes];
  std::uint8_t blocks[kSha256Lanes][64];
  for (std::size_t l = 0; l < kSha256Lanes; ++l) {
    for (auto& word : states[l]) word = static_cast<std::uint32_t>(rng.next());
    for (auto& byte : blocks[l]) byte = static_cast<std::uint8_t>(rng.uniform(256));
    reference[l] = states[l];
    sha256_compress(reference[l], blocks[l]);
  }
  sha256_compress_x8(states, blocks);
  for (std::size_t l = 0; l < kSha256Lanes; ++l) EXPECT_EQ(states[l], reference[l]) << l;

  set_simd_backend(previous);
}

TEST(VerifyQueueSimd, MacX8MatchesScalarMac) {
  // Eight-lane HMAC vs per-lane HmacKey::mac on every admissible message
  // length, repeated keys across lanes included.
  Rng rng(33);
  std::vector<HmacKey> keys;
  for (int k = 0; k < 5; ++k) {
    std::array<std::uint8_t, 32> raw;
    for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.uniform(256));
    keys.emplace_back(std::span<const std::uint8_t>(raw.data(), raw.size()));
  }
  for (std::size_t base_len = 0; base_len <= kMaxSingleBlockMessage; ++base_len) {
    const HmacKey* lane_keys[kSha256Lanes];
    std::uint8_t msgs[kSha256Lanes][kMaxSingleBlockMessage];
    const std::uint8_t* msg_ptrs[kSha256Lanes];
    std::size_t lens[kSha256Lanes];
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      lane_keys[l] = &keys[(base_len + l) % keys.size()];
      lens[l] = (base_len + l) % (kMaxSingleBlockMessage + 1);
      for (std::size_t i = 0; i < lens[l]; ++i) {
        msgs[l][i] = static_cast<std::uint8_t>(rng.uniform(256));
      }
      msg_ptrs[l] = msgs[l];
    }
    Sha256Digest out[kSha256Lanes];
    HmacKey::mac_x8(lane_keys, msg_ptrs, lens, out);
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      const Sha256Digest expected =
          lane_keys[l]->mac(std::span<const std::uint8_t>(msgs[l], lens[l]));
      EXPECT_EQ(out[l], expected) << "base_len=" << base_len << " lane=" << l;
    }
  }
}

TEST(VerifyQueueProperty, MatchesRealAuthMessageDecodeVerify) {
  // Cross-check against the actual message codec: a frame the pipeline
  // accepts must decode and verify as an AuthMessage under the same key, and
  // vice versa for MAC rejects.
  const core::WireConfig wire{};
  auto source = make_source(15);
  const auto flood = source.make_batch(60, 2);
  VerifyQueue queue(source.verify_wire());
  std::vector<VerifyResult> out;
  for (const auto& frame : flood) {
    queue.push(frame.bits, frame.frame_code, source.expected_code());
  }
  queue.drain(source.key_source(), out);
  for (std::size_t i = 0; i < flood.size(); ++i) {
    const auto decoded = core::AuthMessage::decode(flood[i].bits, wire);
    if (out[i].stage == VerifyStage::Accept) {
      ASSERT_TRUE(decoded.has_value()) << i;
      EXPECT_TRUE(decoded->verify(out[i].key, wire)) << i;
      EXPECT_EQ(raw(decoded->sender), out[i].sender) << i;
    } else if (out[i].stage == VerifyStage::RejectMac && decoded.has_value()) {
      const SymmetricKey key =
          source.key_source().key_for(static_cast<std::uint32_t>(raw(decoded->sender)));
      EXPECT_FALSE(decoded->verify(key, wire)) << i;
    }
  }
}

/// Runs `flood` through per-worker VerifyQueues over a pool of `threads`
/// threads (fixed chunking, so the partition does not depend on the thread
/// count), returning verdicts plus the merged decision counters.
struct ShardedRun {
  std::vector<VerifyStage> stages;
  obs::MetricsSnapshot metrics;
};

ShardedRun sharded_verify(const std::vector<adversary::FloodFrame>& flood,
                          const adversary::HandshakeFloodSource& source,
                          std::size_t threads) {
  constexpr std::size_t kShards = 8;
  ShardedRun run;
  run.stages.assign(flood.size(), VerifyStage::RejectLength);
  obs::MetricsRegistry shard_registries[kShards];
  ThreadPool pool(threads);
  pool.parallel_for(kShards, [&](std::size_t shard) {
    obs::ScopedMetricsRegistry scoped(&shard_registries[shard]);
    VerifyQueue queue(source.verify_wire());
    std::vector<VerifyResult> out;
    for (std::size_t i = shard; i < flood.size(); i += kShards) {
      queue.push(flood[i].bits, flood[i].frame_code, source.expected_code());
    }
    queue.drain(source.key_source(), out);
    std::size_t slot = 0;
    for (std::size_t i = shard; i < flood.size(); i += kShards) {
      run.stages[i] = out[slot++].stage;
    }
  });
  obs::MetricsRegistry merged;
  for (auto& registry : shard_registries) merged.absorb(registry.snapshot());
  run.metrics = merged.snapshot();
  return run;
}

TEST(VerifyQueueConcurrency, ThreadCountDoesNotChangeVerdictsOrCounters) {
  // JRSND_THREADS=1 vs 8 over the same sharded flood: verdicts and merged
  // decision counters must be bit-identical — batching must not introduce
  // any cross-thread coupling. (This test also runs under TSan in CI.)
  auto source = make_source(16);
  const auto flood = source.make_batch(264, 10);
  obs::set_metrics_enabled(true);

  const ShardedRun serial = sharded_verify(flood, source, 1);
  const ShardedRun parallel = sharded_verify(flood, source, 8);

  ASSERT_EQ(serial.stages.size(), parallel.stages.size());
  for (std::size_t i = 0; i < serial.stages.size(); ++i) {
    EXPECT_EQ(serial.stages[i], parallel.stages[i]) << i;
    EXPECT_EQ(serial.stages[i], flood[i].expected_stage) << i;
  }
  for (const char* name : kDecisionCounters) {
    EXPECT_EQ(counter_value(serial.metrics, name), counter_value(parallel.metrics, name))
        << name;
  }
}

TEST(VerifyQueueConcurrency, ConcurrentQueuesShareNothing) {
  // Many pool workers hammering private queues against one shared KeySource
  // concurrently; every worker must still get the exact expected verdicts.
  // Under TSan this is the data-race probe for the whole verify pipeline.
  auto source = make_source(17);
  const auto flood = source.make_batch(128, 5);
  ThreadPool pool(8);
  std::vector<std::size_t> accepted(16, 0);
  pool.parallel_for(accepted.size(), [&](std::size_t task) {
    VerifyQueue queue(source.verify_wire());
    std::vector<VerifyResult> out;
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (const auto& frame : flood) {
        queue.push(frame.bits, frame.frame_code, source.expected_code());
      }
      accepted[task] += queue.drain(source.key_source(), out);
    }
  });
  std::size_t expected = 0;
  for (const auto& frame : flood) {
    if (frame.expected_stage == VerifyStage::Accept) ++expected;
  }
  for (const std::size_t count : accepted) EXPECT_EQ(count, expected * 3);
}

}  // namespace
}  // namespace jrsnd::crypto
