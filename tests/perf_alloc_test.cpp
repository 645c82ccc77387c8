// Steady-state allocation audit for the transmit hot path.
//
// The whole point of the scratch-arena refactor is that ChipPhy::transmit_into
// stops touching the heap once its buffers have grown to their working sizes.
// This test links the counting global allocator (tests/oracle/counting_alloc,
// which is why it lives in its own binary) and asserts the count stays flat across repeated
// clean-channel transmissions — both the HELLO codebook-scan path and the
// monitored-code path — and across transmissions a jammer strikes.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/dos_attacker.hpp"
#include "adversary/jammer.hpp"
#include "common/rng.hpp"
#include "core/chip_phy.hpp"
#include "core/dndp.hpp"
#include "core/jrsnd_node.hpp"
#include "core/messages.hpp"
#include "core/mndp.hpp"
#include "crypto/ibc.hpp"
#include "crypto/session_code.hpp"
#include "predist/authority.hpp"
#include "crypto/verify_queue.hpp"
#include "dsss/prepared_codebook.hpp"
#include "dsss/spread_code.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/prof/sampling_profiler.hpp"
#include "obs/span.hpp"
#include "oracle/counting_alloc.hpp"
#include "sim/topology.hpp"

namespace jrsnd {
namespace {

BitVector fixed_payload(std::size_t bits) {
  Rng rng(5);
  BitVector v;
  for (std::size_t i = 0; i < bits; ++i) v.push_back(rng.bernoulli(0.5));
  return v;
}

/// Strikes every message, whatever its code or class.
class AlwaysJammer final : public adversary::Jammer {
 public:
  [[nodiscard]] bool jams(CodeId /*code*/, adversary::MessageClass /*cls*/,
                          Rng& /*rng*/) const override {
    return true;
  }
  [[nodiscard]] const char* name() const noexcept override { return "always"; }
};

TEST(TransmitHotPath, ZeroSteadyStateAllocations) {
  core::Params params = core::Params::defaults();
  params.N = 256;   // long code: no false sync locks on the noise padding
  params.tau = 0.35;

  const sim::Field field{100.0, 100.0};
  const sim::Topology topology(field, {{10, 10}, {20, 10}}, 50.0);
  const adversary::NullJammer clean;
  Rng rng(1234);

  const dsss::SpreadCode code = dsss::SpreadCode::random(rng, params.N, code_id(0));
  dsss::PreparedCodebook prepared(std::vector<dsss::SpreadCode>{code});
  (void)prepared.batch_table();  // build the table outside the counted region

  core::ChipPhy phy(
      params, topology, clean,
      [&prepared](NodeId) -> const dsss::PreparedCodebook& { return prepared; }, rng);

  const BitVector payload = fixed_payload(96);
  const core::TxCode tx{code_id(0), &code};
  BitVector out;

  // Warm-up: grow every scratch buffer (channel window at max pad, ECC block
  // workspaces, sync-hit buffers, monitored single-code codebook) to its
  // steady-state capacity on both candidate-selection paths.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::Hello, payload, out));
    EXPECT_EQ(out, payload);
    ASSERT_TRUE(phy.transmit_into(node_id(0), node_id(1), tx, core::TxClass::SessionUnicast,
                                  payload, out));
    EXPECT_EQ(out, payload);
  }

  // Counted region: no gtest assertions inside (their failure paths
  // allocate); accumulate and check after.
  const std::uint64_t before = oracle::allocation_count();
  int delivered = 0;
  bool payload_intact = true;
  for (int i = 0; i < 100; ++i) {
    const core::TxClass cls = (i % 2 == 0) ? core::TxClass::Hello : core::TxClass::SessionUnicast;
    if (phy.transmit_into(node_id(0), node_id(1), tx, cls, payload, out)) {
      ++delivered;
      payload_intact = payload_intact && out == payload;
    }
  }
  const std::uint64_t after = oracle::allocation_count();

  EXPECT_EQ(delivered, 100);
  EXPECT_TRUE(payload_intact);
  EXPECT_EQ(after - before, 0u) << "transmit_into allocated on the steady-state hot path";

  // Jammed leg: every frame is struck, so each transmit also spreads the
  // jam pattern and superposes it twice on the victim's chips, and the
  // receiver rescans the jammed buffer until it gives up.
  const AlwaysJammer always;
  core::ChipPhy jammed(
      params, topology, always,
      [&prepared](NodeId) -> const dsss::PreparedCodebook& { return prepared; }, rng);
  const auto strike_round = [&] {
    jammed.begin_subsession(node_id(0), node_id(1), code_id(0));
    int got = 0;
    for (const core::TxClass cls : {core::TxClass::Hello, core::TxClass::Confirm,
                                    core::TxClass::SessionUnicast}) {
      got += jammed.transmit_into(node_id(0), node_id(1), tx, cls, payload, out) ? 1 : 0;
    }
    return got;
  };
  for (int i = 0; i < 16; ++i) (void)strike_round();
  const std::uint64_t jams_before = jammed.chip_jams();
  const std::uint64_t jammed_before = oracle::allocation_count();
  int jammed_delivered = 0;
  for (int i = 0; i < 30; ++i) jammed_delivered += strike_round();
  const std::uint64_t jammed_after = oracle::allocation_count();

  EXPECT_EQ(jammed.chip_jams() - jams_before, 90u);
  EXPECT_EQ(jammed_delivered, 0);
  EXPECT_EQ(jammed_after - jammed_before, 0u)
      << "transmit_into allocated on the steady-state jammed path";
}

TEST(VerifyQueueHotPath, ZeroSteadyStateAllocationsOnRejectPath) {
  // The DoS posture depends on this: once reserve() capacity and the peer
  // cache are warm, a push/drain cycle over an all-reject flood (the
  // attacker's steady state) must never touch the heap — metrics enabled,
  // counter handles resolved, MAC lanes included.
  obs::set_metrics_enabled(true);
  adversary::HandshakeFloodSource source(core::WireConfig{}, /*authority_seed=*/77,
                                         /*peer_count=*/16, /*rng_seed=*/20110620);
  auto flood = source.make_batch(129, 128);
  flood.erase(flood.begin());  // drop the one honest frame: pure reject flood
  crypto::VerifyQueue queue(source.verify_wire());
  queue.reserve(flood.size());
  std::vector<crypto::VerifyResult> out;
  out.reserve(flood.size());

  // Warm-up: grow every buffer, build the peer schedules the BadMac frames
  // resolve, and resolve the thread-local JRSND_COUNT handle caches.
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const auto& frame : flood) {
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    ASSERT_EQ(queue.drain(source.key_source(), out), 0u);
  }

  const std::uint64_t before = oracle::allocation_count();
  std::size_t accepted = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (const auto& frame : flood) {
      queue.push(frame.bits, frame.frame_code, source.expected_code());
    }
    accepted += queue.drain(source.key_source(), out);
  }
  const std::uint64_t after = oracle::allocation_count();

  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(after - before, 0u)
      << "the batched verification reject path allocated in the steady state";
}

TEST(ObsHotPath, ZeroSteadyStateAllocationsForSpansAndFlightRing) {
  // The armed observability path: spans (with the JSONL sink detached —
  // tracing off is the production default) plus their flight-ring records
  // must never touch the heap once this thread's ring exists.
  const bool was_armed = obs::flight_enabled();
  obs::set_flight_enabled(true);
  obs::flight_note("alloc.warmup", 1);  // acquire/create this thread's ring
  {
    obs::Span warm("alloc.warmup.span", 7);
    warm.with_u64("k", 1);
  }

  const std::uint64_t before = oracle::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    obs::Span root("dndp.attempt", static_cast<std::uint64_t>(i + 1));
    root.with_u64("a", static_cast<std::uint64_t>(i));
    obs::Span child("phy.transmit");
    child.set_ok(i % 3 != 0);
    if (i % 3 == 0) child.set_loss(obs::LossStage::Jammed);
    child.set_dur(0.001);
    obs::flight_note("alloc.note", static_cast<std::uint64_t>(i));
  }
  const std::uint64_t after = oracle::allocation_count();
  obs::set_flight_enabled(was_armed);
  EXPECT_EQ(after - before, 0u)
      << "span + flight-ring recording allocated on the steady-state path";
}

TEST(ProfHotPath, ZeroSteadyStateAllocationsForPerfRegions) {
  // Enabled PerfRegions must be as heap-quiet as spans: the prof.* handles
  // resolve (and allocate) once per (site, thread, registry generation);
  // after that warm-up pass, entering and exiting a region is atomics only.
  obs::prof::set_prof_backend(obs::prof::ProfBackend::kClockFallback);
  obs::prof::set_prof_enabled(true);
  obs::set_metrics_enabled(true);
  // One lambda = one macro site: the warm-up call resolves (and pays the
  // allocation for) the same thread-local handle cache the counted loop uses.
  volatile std::uint64_t sink = 1;
  const auto touch = [&sink] {
    JRSND_PERF_REGION("alloc.prof.steady");
    sink = sink * 31 + 7;
  };
  touch();

  const std::uint64_t before = oracle::allocation_count();
  for (int i = 0; i < 1000; ++i) touch();
  const std::uint64_t after = oracle::allocation_count();
  obs::prof::set_prof_enabled(false);
  EXPECT_EQ(after - before, 0u) << "PerfRegion allocated on the steady-state path";
}

TEST(ProfHotPath, ZeroAllocationsOnSamplerSignalPath) {
  // The SIGPROF handler fires on whatever this thread is doing; everything
  // it touches (slot claim, frame walk, ring append) is preallocated at
  // profiler_start. Proof: spin under dense sampling until a healthy batch
  // of samples lands and assert the allocation counter never moved.
  obs::prof::ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(obs::prof::profiler_start(options));

  // Warm-up: claim this thread's ring slot (the claim itself is just a
  // fetch_add, but taking the first sample outside the counted region keeps
  // the region a pure steady-state measurement).
  volatile std::uint64_t sink = 1;
  for (int spin = 0; spin < 20'000 && obs::prof::profiler_samples() == 0; ++spin) {
    for (int i = 0; i < 100'000; ++i) sink = sink * 2862933555777941757ULL + 3037000493ULL;
  }
  const std::uint64_t warm_samples = obs::prof::profiler_samples();

  const std::uint64_t before = oracle::allocation_count();
  for (int spin = 0;
       spin < 40'000 && obs::prof::profiler_samples() < warm_samples + 10; ++spin) {
    for (int i = 0; i < 100'000; ++i) sink = sink * 2862933555777941757ULL + 3037000493ULL;
  }
  const std::uint64_t after = oracle::allocation_count();

  obs::prof::profiler_stop();
  EXPECT_GT(obs::prof::profiler_samples(), warm_samples)
      << "sampler took no samples while the thread burned CPU";
  EXPECT_EQ(after - before, 0u) << "the SIGPROF signal path allocated";
}

/// Loses every frame: a D-NDP run over it does the code-set work and opens
/// every sub-session, but no handshake message is ever delivered.
class DropAllPhy final : public core::PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId, NodeId, core::TxCode, core::TxClass,
                                    const BitVector&) override {
    return std::nullopt;
  }
};

/// Three nodes over a 6-code pool: 0 and 2 hold the same three codes, 1 holds
/// the other three (disjoint from both).
struct CodeSetWorld {
  core::Params params = make_params();
  predist::CodePoolAuthority authority{params.predist(), Rng(1)};
  crypto::IbcAuthority ibc{2};
  std::vector<core::NodeState> nodes;

  CodeSetWorld() {
    const std::vector<CodeId> low = {code_id(0), code_id(1), code_id(2)};
    const std::vector<CodeId> high = {code_id(3), code_id(4), code_id(5)};
    Rng node_rng(3);
    for (std::uint32_t i = 0; i < 3; ++i) {
      nodes.emplace_back(node_id(i), ibc.issue(node_id(i)), i == 1 ? high : low, authority,
                         params.gamma, node_rng.split());
    }
  }

  static core::Params make_params() {
    core::Params p = core::Params::defaults();
    p.n = 6;
    p.m = 3;
    p.l = 3;
    p.N = 64;
    return p;
  }
};

TEST(DndpHotPath, UsableCodesNeverAllocate) {
  CodeSetWorld w;
  ASSERT_EQ(w.nodes[0].usable_codes().size(), 3u);
  (void)w.nodes[0].revocation().revoke(code_id(1));  // a revoked code leaves the set
  const std::uint64_t before = oracle::allocation_count();
  std::size_t total = 0;
  for (int i = 0; i < 1000; ++i) {
    total += w.nodes[0].usable_codes().size() + w.nodes[1].revocation().usable_codes().size();
  }
  const std::uint64_t after = oracle::allocation_count();
  EXPECT_EQ(total, 1000u * 5u);
  EXPECT_EQ(after - before, 0u) << "usable_codes() allocated";
}

TEST(DndpHotPath, WarmRunAllocatesNothingForTheCodeSet) {
  CodeSetWorld w;
  DropAllPhy phy;
  core::DndpEngine engine(w.params, phy);
  // Warm-up: grows the engine's intersection scratch to the shared-set size
  // and its per-pair buffers (nonces, HELLO, CONFIRM) to their frame sizes.
  ASSERT_EQ(engine.run(w.nodes[0], w.nodes[2]).shared_codes, 3u);
  ASSERT_EQ(engine.run(w.nodes[0], w.nodes[1]).shared_codes, 0u);

  // A pair with no shared code is pure code-set work: no allocation at all.
  std::uint64_t before = oracle::allocation_count();
  for (int i = 0; i < 100; ++i) ASSERT_EQ(engine.run(w.nodes[0], w.nodes[1]).shared_codes, 0u);
  EXPECT_EQ(oracle::allocation_count() - before, 0u)
      << "a run with an empty intersection allocated";

  // A pair sharing three codes draws its nonces and encodes its HELLO and
  // CONFIRM into the engine's reused buffers: nothing allocates for the
  // code set, the per-pair values or any of its three sub-sessions.
  before = oracle::allocation_count();
  for (int i = 0; i < 100; ++i) {
    const core::DndpResult r = engine.run(w.nodes[0], w.nodes[2]);
    ASSERT_EQ(r.shared_codes, 3u);
    ASSERT_FALSE(r.discovered);
  }
  EXPECT_EQ(oracle::allocation_count() - before, 0u)
      << "a warm run that delivers nothing allocated";
}

/// Delivers every frame into the receiver's buffer by copy-assignment (no
/// allocation once that buffer is warm); with `flip_auth_mac` it flips the
/// last bit of every AUTH frame, which is a MAC bit.
class LoopbackIntoPhy final : public core::PhyModel {
 public:
  explicit LoopbackIntoPhy(bool flip_auth_mac = false) : flip_auth_mac_(flip_auth_mac) {}

  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId from, NodeId to, core::TxCode code,
                                    core::TxClass cls, const BitVector& payload) override {
    return into_optional(from, to, code, cls, payload);
  }
  bool transmit_into(NodeId, NodeId, core::TxCode, core::TxClass cls, const BitVector& payload,
                     BitVector& out) override {
    out = payload;
    if (flip_auth_mac_ && cls == core::TxClass::Auth) out.flip(out.size() - 1);
    return true;
  }

 private:
  bool flip_auth_mac_;
};

TEST(DndpHotPath, WarmDiscoveryAllocatesOnlyTheStoredSessionCode) {
  CodeSetWorld w;
  LoopbackIntoPhy phy;
  core::DndpEngine engine(w.params, phy);
  // Warm-up: every buffer, both key slots, and both nodes' neighbor entries.
  ASSERT_TRUE(engine.run(w.nodes[0], w.nodes[2]).discovered);

  // Each rediscovery replaces the pair's neighbor entries in place. Its
  // allocations are the session code the derivation returns (moved into
  // the responder's entry) and the initiator's copy of it — nothing for
  // frames, verification or the three sub-sessions.
  const std::uint64_t before = oracle::allocation_count();
  for (int i = 0; i < 100; ++i) {
    const core::DndpResult r = engine.run(w.nodes[0], w.nodes[2]);
    ASSERT_TRUE(r.discovered);
    ASSERT_EQ(r.subsessions_completed, 3u);
  }
  EXPECT_EQ(oracle::allocation_count() - before, 100u * 2u)
      << "a warm discovery allocated beyond its stored session code";
  const core::LogicalNeighbor* at_a = w.nodes[0].neighbor(node_id(2));
  const core::LogicalNeighbor* at_b = w.nodes[2].neighbor(node_id(0));
  ASSERT_NE(at_a, nullptr);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_a->session_code, at_b->session_code);
  EXPECT_EQ(at_a->session_code.size(), w.params.N);
}

TEST(DndpHotPath, WarmMacRejectedPairAllocatesNothing) {
  CodeSetWorld w;
  LoopbackIntoPhy phy(/*flip_auth_mac=*/true);
  core::DndpEngine engine(w.params, phy);
  const core::DndpResult warm = engine.run(w.nodes[0], w.nodes[2]);
  ASSERT_FALSE(warm.discovered);
  ASSERT_TRUE(warm.mac_failure);

  const std::uint64_t before = oracle::allocation_count();
  for (int i = 0; i < 100; ++i) {
    const core::DndpResult r = engine.run(w.nodes[0], w.nodes[2]);
    ASSERT_EQ(r.hellos_delivered, 3u);
    ASSERT_TRUE(r.mac_failure);
    ASSERT_FALSE(r.discovered);
  }
  EXPECT_EQ(oracle::allocation_count() - before, 0u)
      << "a warm pair whose AUTH fails its MAC allocated";
}

/// Delivers every frame verbatim except the M-NDP completion HELLO, so
/// responses never complete and a repeated initiation replays the same
/// message flow. Counts what it delivers. Each delivery copies the payload
/// into the receiver's buffer, as AbstractPhy does, so a warm buffer costs
/// no allocation.
class NoCompletionPhy final : public core::PhyModel {
 public:
  void begin_subsession(NodeId, NodeId, CodeId) override {}
  std::optional<BitVector> transmit(NodeId from, NodeId to, core::TxCode code,
                                    core::TxClass cls, const BitVector& payload) override {
    return into_optional(from, to, code, cls, payload);
  }
  bool transmit_into(NodeId, NodeId to, core::TxCode, core::TxClass cls,
                     const BitVector& payload, BitVector& out) override {
    if (cls == core::TxClass::SessionHello) return false;
    ++delivered;
    if (core::peek_type(payload, wire) == core::MessageType::MndpRequest) {
      ++requests_to[raw(to)];
    }
    out = payload;
    return true;
  }

  core::WireConfig wire;
  std::uint64_t delivered = 0;
  std::vector<std::uint64_t> requests_to = std::vector<std::uint64_t>(4);
};

/// Four nodes with logical links 0-1, 0-2, 1-2, 1-3 and 2-3, all in radio
/// range. A request from 0 (nu = 2) reaches 1 and 2, which both forward it
/// to 3: 3 processes the copy from 1, responds to 0 through 1, and drops
/// the copy from 2 as a duplicate.
struct MndpHotWorld {
  core::Params params = make_params();
  predist::CodePoolAuthority authority{params.predist(), Rng(1)};
  crypto::IbcAuthority ibc{2};
  sim::Field field{100.0, 100.0};
  sim::Topology topology{field, {{10, 10}, {20, 10}, {10, 20}, {20, 20}}, 50.0};
  std::vector<core::NodeState> nodes;

  MndpHotWorld() {
    Rng node_rng(3);
    nodes = core::issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
    Rng code_rng(4);
    for (const auto& [a, b] : {std::pair{0u, 1u}, {0u, 2u}, {1u, 2u}, {1u, 3u}, {2u, 3u}}) {
      const crypto::SymmetricKey key = nodes[a].key().shared_key(node_id(b));
      BitVector code(params.N);
      for (std::size_t i = 0; i < params.N; ++i) code.set(i, code_rng.bernoulli(0.5));
      nodes[a].add_logical_neighbor(node_id(b), core::LogicalNeighbor{key, code, false});
      nodes[b].add_logical_neighbor(node_id(a), core::LogicalNeighbor{key, code, false});
    }
  }

  static core::Params make_params() {
    core::Params p = core::Params::defaults();
    p.n = 4;
    p.m = 2;
    p.l = 2;
    p.N = 64;
    p.nu = 2;
    return p;
  }
};

TEST(MndpHotPath, WarmInitiateAllocatesOnlyItsValuesAndPhyCopies) {
  MndpHotWorld w;
  NoCompletionPhy phy;
  phy.wire = w.params.wire();
  core::MndpEngine engine(w.params, phy, w.topology, w.ibc.oracle());
  const std::span<core::NodeState> nodes(w.nodes);

  // Warm-up: grows every scratch buffer, builds the signer schedules and
  // the dedup lists to this flow's sizes.
  const core::MndpStats warm = engine.initiate(w.nodes[0], nodes);
  ASSERT_EQ(warm.responses_sent, 1u);
  ASSERT_EQ(warm.discoveries, 0u);

  // What one of each per-initiation and per-response value costs: a nonce,
  // a session-code derivation, the completion HELLO's frame.
  std::uint64_t before = oracle::allocation_count();
  const BitVector nonce = w.nodes[3].make_nonce(w.params.l_n);
  const std::uint64_t nonce_allocs = oracle::allocation_count() - before;
  before = oracle::allocation_count();
  const BitVector code = crypto::derive_session_code(w.nodes[0].key().shared_key(node_id(3)),
                                                     nonce, nonce, w.params.N);
  const std::uint64_t code_allocs = oracle::allocation_count() - before;
  before = oracle::allocation_count();
  const BitVector hello = core::HelloMessage{node_id(3)}.encode(phy.wire);
  const std::uint64_t hello_allocs = oracle::allocation_count() - before;
  ASSERT_EQ(code.size(), w.params.N);
  ASSERT_FALSE(hello.empty());

  constexpr int kInitiations = 20;
  std::vector<core::MndpStats> stats(kInitiations);
  std::vector<std::uint64_t> requests_to_3(kInitiations);
  std::uint64_t expected = 0;
  std::uint64_t allocations = 0;
  for (int i = 0; i < kInitiations; ++i) {
    engine.begin_round();
    const std::uint64_t delivered = phy.delivered;
    const std::uint64_t to_3 = phy.requests_to[3];
    before = oracle::allocation_count();
    stats[static_cast<std::size_t>(i)] = engine.initiate(w.nodes[0], nodes);
    allocations += oracle::allocation_count() - before;
    const core::MndpStats& s = stats[static_cast<std::size_t>(i)];
    // The initiator's nonce; per response the responder's nonce, both
    // ends' session-code derivations and the HELLO frame — and nothing for
    // deliveries, decoding, encoding, signed bodies or session unicasts,
    // duplicates included.
    expected += nonce_allocs + s.responses_sent * (nonce_allocs + 2 * code_allocs + hello_allocs);
    ASSERT_GT(phy.delivered, delivered);
    requests_to_3[static_cast<std::size_t>(i)] = phy.requests_to[3] - to_3;
  }

  for (int i = 0; i < kInitiations; ++i) {
    const core::MndpStats& s = stats[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.requests_sent, 4u);  // 0 -> {1, 2}, 1 -> 3, 2 -> 3
    EXPECT_EQ(s.responses_sent, 1u);
    // Requests at 1, 2 and 3 (1 + 1 + 2 signatures), the response at 1 and
    // at 0 (1 + 2): node 3's second copy was dropped before its decode.
    EXPECT_EQ(s.signature_verifications, 7u);
    EXPECT_EQ(requests_to_3[static_cast<std::size_t>(i)], 2u);
    EXPECT_EQ(s.requests_dropped, 0u);
  }
  EXPECT_EQ(allocations, expected)
      << "a warm initiate allocated beyond its values";
}

}  // namespace
}  // namespace jrsnd
