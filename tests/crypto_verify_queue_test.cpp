// Property tests for the batched handshake-verification pipeline: the
// batched drain must be bit-identical — verdicts, senders, accepted keys,
// and every per-stage decision counter — to verify_one_shot, the historical
// one-at-a-time reference, on any flood mix, and to verify_now past the
// peer-cache cap. Plus: MAC-stage amortization invariants, the shared SIMD
// level, and thread-count invariance of the whole pipeline (the
// VerifyQueue* suites below also run under TSan in CI).
#include "crypto/verify_queue.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "adversary/dos_attacker.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/handshake.hpp"
#include "core/messages.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
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

// One SIMD level governs both kernels: forcing it to scalar must move the
// MAC stage's SHA-256 too (not only the sync correlator), publish the shared
// gauge even with metrics off, and leave the verdicts unchanged.
TEST(VerifyQueueSimd, ForcedScalarLevelReachesHashLanes) {
  const SimdBackend previous = simd_backend();
  obs::set_metrics_enabled(false);
  ASSERT_EQ(set_simd_backend(SimdBackend::kScalar), SimdBackend::kScalar);
  EXPECT_EQ(sha256_backend(), Sha256Backend::kScalar);
  EXPECT_EQ(obs::registry().gauge("simd.backend").value(),
            static_cast<double>(SimdBackend::kScalar));

  auto source = make_source(33);
  const auto flood = source.make_batch(40, 3);
  VerifyQueue queue(source.verify_wire());
  std::vector<VerifyResult> out;
  for (const auto& frame : flood) {
    queue.push(frame.bits, frame.frame_code, source.expected_code());
  }
  queue.drain(source.key_source(), out);
  for (std::size_t i = 0; i < flood.size(); ++i) {
    EXPECT_EQ(out[i].stage, flood[i].expected_stage) << i;
  }

  set_simd_backend(previous);
}

/// Pairwise keys for `sender` IDs 1..n without an IBC authority: each
/// sender is its own cache key, its key the hash of its ID.
class PerSenderKeys : public KeySource {
 public:
  [[nodiscard]] std::uint64_t cache_key(std::uint32_t sender) const noexcept override {
    return sender;
  }
  [[nodiscard]] SymmetricKey key_for(std::uint32_t sender) const override {
    return Sha256::hash("peer " + std::to_string(sender));
  }
};

TEST(VerifyQueueProperty, OverflowSlotReusedWithinOneDrainMatchesVerifyNow) {
  // One drain whose MAC-stage survivors come from more distinct peers than
  // the cache holds: every group past the cap resolves into the single
  // overflow slot, reusing it inside the batch. Verdicts, senders, keys and
  // every crypto.* counter must equal verify_now's, frame by frame.
  const core::WireConfig wire{};
  const VerifyWire vw = core::verify_wire_from(wire);
  const PerSenderKeys keys;
  constexpr std::uint32_t kExpectedCode = 7;
  const std::uint32_t peers = static_cast<std::uint32_t>(VerifyQueue::kMaxCachedPeers) + 300;

  // One MAC-stage frame per peer (every third with a flipped MAC bit), in a
  // shuffled order so the drain's sort by cache key reorders them; every
  // fifth peer also sends a copy on a wrong code, a cheap reject.
  std::vector<std::uint32_t> order(peers);
  for (std::uint32_t p = 0; p < peers; ++p) order[p] = p + 1;
  Rng rng(34);
  rng.shuffle(std::span<std::uint32_t>(order));
  std::vector<BitVector> frames;
  std::vector<std::uint32_t> codes;
  for (const std::uint32_t sender : order) {
    BitVector nonce(wire.l_n);
    for (std::size_t b = 0; b < wire.l_n; ++b) nonce.set(b, rng.bernoulli(0.5));
    BitVector frame =
        core::AuthMessage::make(node_id(sender), nonce, keys.key_for(sender), wire).encode(wire);
    if (sender % 3 == 0) frame.flip(frame.size() - 1);
    if (sender % 5 == 0) {
      frames.push_back(frame);
      codes.push_back(kExpectedCode + 1);
    }
    frames.push_back(std::move(frame));
    codes.push_back(kExpectedCode);
  }

  obs::set_metrics_enabled(true);
  VerifyQueue batched_queue(vw);  // outside the registries: ctor builds a midstate
  VerifyQueue single_queue(vw);
  obs::MetricsRegistry batched_registry, single_registry;
  std::vector<VerifyResult> batched;
  {
    obs::ScopedMetricsRegistry scoped(&batched_registry);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      batched_queue.push(frames[i], codes[i], kExpectedCode);
    }
    batched_queue.drain(keys, batched);
  }
  std::vector<VerifyResult> single;
  {
    obs::ScopedMetricsRegistry scoped(&single_registry);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      single.push_back(single_queue.verify_now(frames[i], codes[i], kExpectedCode, keys));
    }
  }
  EXPECT_EQ(batched_queue.cached_peers(), VerifyQueue::kMaxCachedPeers);
  EXPECT_EQ(single_queue.cached_peers(), VerifyQueue::kMaxCachedPeers);

  ASSERT_EQ(batched.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint32_t sender = batched[i].sender;
    const VerifyStage want = codes[i] != kExpectedCode ? VerifyStage::RejectCode
                             : sender % 3 == 0         ? VerifyStage::RejectMac
                                                       : VerifyStage::Accept;
    EXPECT_EQ(batched[i].stage, want) << i;
    EXPECT_EQ(batched[i].stage, single[i].stage) << i;
    EXPECT_EQ(sender, single[i].sender) << i;
    EXPECT_EQ(batched[i].key, single[i].key) << i;
    if (want == VerifyStage::Accept) {
      EXPECT_EQ(batched[i].key, keys.key_for(sender)) << i;
    }
  }

  const obs::MetricsSnapshot a = batched_registry.snapshot();
  const obs::MetricsSnapshot b = single_registry.snapshot();
  EXPECT_EQ(counter_value(a, "crypto.verify.peer_cache.misses"), peers);
  EXPECT_EQ(counter_value(a, "crypto.hmac.midstate.hits"), peers);
  for (const auto* snapshot : {&a, &b}) {
    for (const auto& sample : snapshot->counters) {
      if (sample.name.rfind("crypto.", 0) != 0 || sample.name == "crypto.verify.batches") continue;
      EXPECT_EQ(counter_value(a, sample.name.c_str()), counter_value(b, sample.name.c_str()))
          << sample.name;
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
