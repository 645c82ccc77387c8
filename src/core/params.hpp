// JR-SND system parameters — Table I of the paper plus the simulation
// environment of §VI-B. Every experiment starts from defaults() and
// overrides the swept parameter.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "core/handshake.hpp"
#include "dsss/timing.hpp"
#include "predist/authority.hpp"

namespace jrsnd::core {

struct Params {
  // --- network / pre-distribution -------------------------------------
  std::uint32_t n = 2000;  ///< number of MANET nodes
  std::uint32_t m = 100;   ///< spread codes per node
  std::uint32_t l = 40;    ///< max holders per code
  std::uint32_t q = 20;    ///< compromised nodes

  // --- DSSS ------------------------------------------------------------
  std::size_t N = 512;        ///< spread-code length (chips)
  double R = 22e6;            ///< chip rate (chips/s)
  double rho = 1e-11;         ///< correlation cost (s/bit)
  double tau = 0.15;          ///< correlation decision threshold
  double mu = 1.0;            ///< ECC redundancy parameter

  // --- protocol --------------------------------------------------------
  std::uint32_t nu = 2;       ///< M-NDP hop limit
  std::uint32_t z = 8;        ///< jammer's parallel signals
  std::uint32_t gamma = 10;   ///< DoS revocation threshold
  /// Parallel receive/correlation chains (paper future work; 1 = paper).
  std::uint32_t rx_chains = 1;

  /// Handshake retry/timeout/backoff discipline (robustness extension; the
  /// default disabled policy reproduces the paper's one-shot handshakes
  /// bit-for-bit — see docs/robustness.md).
  RetryPolicy retry;

  // --- message field lengths (bits) ------------------------------------
  std::uint32_t l_t = 5;      ///< message-type identifier
  std::uint32_t l_id = 16;    ///< node ID
  std::uint32_t l_n = 20;     ///< nonce
  std::uint32_t l_mac = 160;  ///< MAC tag (Table I row "l_f")
  std::uint32_t l_nu = 4;     ///< hop-limit field
  std::uint32_t l_sig = 672;  ///< ID-based signature

  // --- cryptographic timing (adopted from [13]) -------------------------
  double t_key = 11e-3;   ///< ID-based shared-key computation (s)
  double t_sig = 5.7e-3;  ///< signature generation (s)
  double t_ver = 35.5e-3; ///< signature verification (s)

  // --- simulation environment (§VI-B) ----------------------------------
  double field_width = 5000.0;   ///< m
  double field_height = 5000.0;  ///< m
  double tx_range = 300.0;       ///< transmission radius a (m)
  std::uint32_t runs = 100;      ///< averaging runs per data point

  /// Table-I defaults.
  [[nodiscard]] static Params defaults() { return Params{}; }

  // --- derived quantities ------------------------------------------------

  /// The message field widths both protocol engines encode with.
  [[nodiscard]] WireConfig wire() const noexcept { return {l_t, l_id, l_n, l_mac, l_nu, l_sig}; }

  /// HELLO payload bits: l_t + l_id.
  [[nodiscard]] std::uint32_t hello_payload_bits() const noexcept { return l_t + l_id; }

  /// Idealized coded HELLO length l_h = (1+mu)(l_t + l_id).
  [[nodiscard]] double l_h() const noexcept {
    return (1.0 + mu) * static_cast<double>(hello_payload_bits());
  }

  /// Idealized coded auth-message length l_f = (1+mu)(l_id + l_n + l_mac).
  [[nodiscard]] double l_f() const noexcept {
    return (1.0 + mu) * static_cast<double>(l_id + l_n + l_mac);
  }

  /// Pre-distribution parameters derived from (n, m, l, N).
  [[nodiscard]] predist::PredistParams predist() const noexcept {
    predist::PredistParams p;
    p.node_count = n;
    p.codes_per_node = m;
    p.holders_per_code = l;
    p.code_length_chips = N;
    return p;
  }

  /// Buffering/processing timing model derived from (N, R, rho, m, l_h).
  [[nodiscard]] dsss::TimingInputs timing() const noexcept {
    dsss::TimingInputs t;
    t.code_length_chips = N;
    t.chip_rate_bps = R;
    t.rho_seconds_per_bit = rho;
    t.codes_per_node = m;
    t.hello_coded_bits = static_cast<std::size_t>(l_h());
    t.rx_chains = rx_chains;
    return t;
  }

  /// Pool size s = ceil(n/l) * m.
  [[nodiscard]] std::uint32_t pool_size() const noexcept { return predist().pool_size(); }

  /// One-line textual summary (bench headers).
  [[nodiscard]] std::string summary() const;
};

}  // namespace jrsnd::core
