// google-benchmark microbenches of the primitives every discovery run leans
// on: SHA-256/HMAC, Reed-Solomon encode/decode, spreading/correlation, the
// sliding-window scan, IBC key agreement, and a full D-NDP handshake.
#include <benchmark/benchmark.h>

#include "adversary/jammer.hpp"
#include "common/rng.hpp"
#include "core/abstract_phy.hpp"
#include "core/dndp.hpp"
#include "crypto/hmac.hpp"
#include "crypto/ibc.hpp"
#include "crypto/session_code.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spreader.hpp"
#include "ecc/reed_solomon.hpp"
#include "sim/topology.hpp"

namespace {

using namespace jrsnd;

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  std::vector<std::uint8_t> key(32, 0x11);
  std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)), 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_IbcSharedKey(benchmark::State& state) {
  const crypto::IbcAuthority authority(1);
  const auto key = authority.issue(node_id(1));
  std::uint32_t peer = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.shared_key(node_id(peer++)));
  }
}
BENCHMARK(BM_IbcSharedKey);

void BM_IbcSignVerify(benchmark::State& state) {
  const crypto::IbcAuthority authority(1);
  const auto key = authority.issue(node_id(1));
  const std::vector<std::uint8_t> msg(128, 0x42);
  for (auto _ : state) {
    const auto sig = key.sign(msg);
    benchmark::DoNotOptimize(authority.oracle()->verify(node_id(1), msg, sig));
  }
}
BENCHMARK(BM_IbcSignVerify);

void BM_SessionCodeDerivation(benchmark::State& state) {
  crypto::SymmetricKey key;
  key.fill(0x5a);
  Rng rng(1);
  BitVector na(20);
  BitVector nb(20);
  for (std::size_t i = 0; i < 20; ++i) {
    na.set(i, rng.bernoulli(0.5));
    nb.set(i, rng.bernoulli(0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::derive_session_code(key, na, nb, 512));
  }
}
BENCHMARK(BM_SessionCodeDerivation);

void BM_RsEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = n / 2;
  const ecc::ReedSolomon rs(n, k);
  Rng rng(1);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(k));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
}
BENCHMARK(BM_RsEncode)->Arg(16)->Arg(64)->Arg(254);

void BM_RsDecodeErrata(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = n / 2;
  const ecc::ReedSolomon rs(n, k);
  Rng rng(2);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(k));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  auto cw = rs.encode(data);
  std::vector<int> erasures;
  for (int i = 0; i < (n - k) / 2; ++i) {
    erasures.push_back(i * 2);
    cw[static_cast<std::size_t>(i * 2)] = 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(cw, erasures));
  }
}
BENCHMARK(BM_RsDecodeErrata)->Arg(16)->Arg(64)->Arg(254);

void BM_Spread(benchmark::State& state) {
  Rng rng(3);
  const dsss::SpreadCode code = dsss::SpreadCode::random(rng, 512);
  BitVector message(42);
  for (std::size_t i = 0; i < 42; ++i) message.set(i, rng.bernoulli(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsss::spread(message, code));
  }
}
BENCHMARK(BM_Spread);

void BM_CorrelateN512(benchmark::State& state) {
  Rng rng(4);
  const dsss::SpreadCode code = dsss::SpreadCode::random(rng, 512);
  BitVector window(512);
  for (std::size_t i = 0; i < 512; ++i) window.set(i, rng.bernoulli(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.correlate(window));
  }
}
BENCHMARK(BM_CorrelateN512);

void BM_SlidingWindowScan(benchmark::State& state) {
  // Scan a buffer of noise + one message with m candidate codes.
  Rng rng(5);
  const std::size_t n = 128;
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<dsss::SpreadCode> codes;
  for (std::size_t i = 0; i < m; ++i) codes.push_back(dsss::SpreadCode::random(rng, n));
  BitVector message(8);
  for (std::size_t i = 0; i < 8; ++i) message.set(i, rng.bernoulli(0.5));
  BitVector buffer(300);
  for (std::size_t i = 0; i < 300; ++i) buffer.set(i, rng.bernoulli(0.5));
  buffer.append(dsss::spread(message, codes[m - 1]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsss::find_first_message(buffer, codes, 8, 0.3));
  }
}
BENCHMARK(BM_SlidingWindowScan)->Arg(1)->Arg(4)->Arg(16);

void BM_FullDndpHandshake(benchmark::State& state) {
  // One complete 4-message D-NDP run (message-level PHY) incl. all crypto.
  core::Params p = core::Params::defaults();
  p.n = 2;
  p.m = 8;
  p.l = 2;
  const predist::CodePoolAuthority authority(p.predist(), Rng(1));
  const crypto::IbcAuthority ibc(2);
  const sim::Field field(100.0, 100.0);
  const sim::Topology topology(field, {{0.0, 0.0}, {10.0, 0.0}}, 50.0);
  Rng phy_rng(3);
  adversary::NullJammer jammer;
  core::AbstractPhy phy(topology, jammer, phy_rng);
  core::DndpEngine engine(p, phy);
  Rng node_rng(4);
  std::vector<core::NodeState> nodes = core::issue_nodes(authority, ibc, p.n, p.gamma, node_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(nodes[0], nodes[1]));
  }
}
BENCHMARK(BM_FullDndpHandshake);

}  // namespace

BENCHMARK_MAIN();
