// §V-D — resilience to the verification-flooding DoS attack.
//
// The paper's claim: public-code-set schemes [2]-[10] let the adversary
// force unbounded signature verifications, while JR-SND caps the network-
// wide waste per compromised code at (l-1)(gamma+1) verifications via local
// revocation. This bench floods both designs with growing request budgets
// and prints the verification work (count and CPU time at t_ver = 35.5 ms).
#include <iostream>
#include <vector>

#include "adversary/compromise.hpp"
#include "adversary/dos_attacker.hpp"
#include "baselines/public_code_set.hpp"
#include "bench_util.hpp"
#include "core/metrics.hpp"
#include "crypto/verify_queue.hpp"
#include "oracle/crypto_reference.hpp"
#include "predist/authority.hpp"

int main() {
  using namespace jrsnd;
  core::Params p = core::Params::defaults();
  p.runs = bench::runs_from_env();
  bench::print_banner("DoS resilience (paper §V-D)",
                      "Verification flood: JR-SND w/ revocation vs public-code-set baseline",
                      p);

  // One representative world.
  predist::CodePoolAuthority authority(p.predist(), Rng(1));
  Rng rng(2);
  const adversary::CompromiseModel compromise(authority.assignment(), p.q, rng);
  const auto codes = compromise.compromised_codes();
  std::cout << "\ncompromised nodes: " << p.q << ", compromised codes: " << codes.size()
            << ", gamma: " << p.gamma << "\n";

  core::Table table({"flood/code", "jrsnd_verif", "jrsnd_cpu_s", "public_verif",
                     "public_cpu_s", "jrsnd_bound"},
                    14);
  // Public baseline: each injected request is heard by ~g nodes that must
  // all verify it (no revocation possible).
  const std::uint64_t receivers = 22;
  for (const std::uint64_t flood : {10ull, 100ull, 1000ull, 10000ull, 100000ull}) {
    adversary::DosCampaign campaign(authority.assignment(), codes,
                                    compromise.compromised_nodes(), p.gamma, p.t_ver);
    const adversary::DosCampaignResult r = campaign.run(flood);
    const std::uint64_t public_verifs = baselines::PublicCodeSetScheme::dos_verifications(
        flood * codes.size(), receivers);
    table.add_row(std::vector<std::string>{
        core::fmt(static_cast<double>(flood), 0),
        core::fmt(static_cast<double>(r.verifications), 0),
        core::fmt(r.verification_time_s, 1),
        core::fmt(static_cast<double>(public_verifs), 0),
        core::fmt(static_cast<double>(public_verifs) * p.t_ver, 1),
        core::fmt(static_cast<double>(campaign.total_verification_bound()), 0)});
  }
  table.print(std::cout);
  bench::write_csv_if_requested("dos_resilience", table);

  std::cout << "\nExpected shape: JR-SND's verification work saturates at the revocation\n"
               "bound regardless of the attacker's budget; the public-code-set baseline\n"
               "grows linearly without limit (its CPU column is the network-wide\n"
               "signature-verification time burned, at t_ver = 35.5 ms each).\n";

  // Measured receiver throughput under the same flood: actual handshakes/sec
  // a single receiver sustains through the batched verification pipeline vs
  // the historical one-at-a-time decode (bench/dos_throughput is the gated
  // version of this measurement; here it contextualizes the model above).
  std::cout << "\nreceiver verification throughput (measured, handshakes/sec):\n";
  adversary::HandshakeFloodSource source(core::WireConfig{}, /*authority_seed=*/77,
                                         /*peer_count=*/16, /*rng_seed=*/20110620);
  crypto::VerifyQueue queue(source.verify_wire());
  core::Table hs_table({"attacker:honest", "one_shot_hps", "batched_hps", "speedup"}, 16);
  for (const std::uint32_t ratio : {1u, 10u, 100u}) {
    const std::vector<adversary::FloodFrame> flood = source.make_batch(512, ratio);
    const oracle::FloodThroughput one_shot = oracle::measure_one_shot_throughput(
        source.verify_wire(), flood, source.key_source(), source.expected_code(), 0.2);
    queue.clear_key_cache();
    const oracle::FloodThroughput batched = oracle::measure_batched_throughput(
        queue, flood, source.key_source(), source.expected_code(), 0.2);
    hs_table.add_row(std::vector<std::string>{
        core::fmt(static_cast<double>(ratio), 0) + ":1",
        core::fmt(one_shot.frames_per_sec(), 0), core::fmt(batched.frames_per_sec(), 0),
        core::fmt(batched.frames_per_sec() / one_shot.frames_per_sec(), 1) + "x"});
  }
  hs_table.print(std::cout);
  bench::write_csv_if_requested("dos_resilience_throughput", hs_table);
  return 0;
}
