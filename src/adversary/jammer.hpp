// Jammer models (paper §IV-B and Theorem 1).
//
// J can transmit at most z parallel signals against a targeted message and
// must jam at least a mu/(1+mu) fraction of it with the *correct* spread
// code to defeat the ECC. Two strategies:
//
//  * RandomJammer — picks compromised codes at random; during one message it
//    can try at most z(1+mu)/mu distinct codes (each must cover the minimum
//    fraction), so a message spread with a compromised code is jammed with
//    probability beta = min(z(1+mu)/(c*mu), 1) where c is the number of
//    compromised codes. The three post-HELLO messages of a D-NDP sub-session
//    all use the same single code, so at least one of them is hit with
//    probability beta' = min(3 z (1+mu)/(c*mu), 1).
//  * ReactiveJammer — identifies the code in use from the first 1/(1+mu) of
//    the transmission; any message spread with a compromised code is jammed
//    (with configurable identification probability, 1.0 = the paper's
//    worst case).
//
// Message-level jam decisions feed the network-scale Monte-Carlo
// (core/abstract_phy); chip-level jamming is produced by
// make_chip_jam_into() (ChipPhy's struck frames) and its wrapper
// make_chip_jamming() (the DSSS integration tests).
#pragma once

#include <cstdint>
#include <memory>

#include "adversary/compromise.hpp"
#include "common/bit_vector.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsss/chip_channel.hpp"
#include "dsss/spread_code.hpp"

namespace jrsnd::adversary {

/// Which leg of a D-NDP sub-session a message belongs to; the jammer's
/// effective success probability differs (Theorem 1's beta vs beta').
enum class MessageClass {
  Hello,     ///< the initial HELLO broadcast
  Followup,  ///< CONFIRM + both authentication messages (single shared code)
  SessionSpread,  ///< messages spread with a freshly derived session code
};

struct JammerParams {
  std::uint32_t z = 8;  ///< parallel jamming signals (z << N)
  double mu = 1.0;      ///< ECC redundancy parameter
};

/// Abstract message-level jammer.
class Jammer {
 public:
  virtual ~Jammer() = default;

  /// Decides whether J jams a message spread with `code`. Session codes
  /// (freshly derived, never in the pool) pass code = kInvalidCode.
  [[nodiscard]] virtual bool jams(CodeId code, MessageClass cls, Rng& rng) const = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

class RandomJammer final : public Jammer {
 public:
  RandomJammer(const CompromiseModel& compromise, const JammerParams& params);

  [[nodiscard]] bool jams(CodeId code, MessageClass cls, Rng& rng) const override;
  [[nodiscard]] const char* name() const noexcept override { return "random"; }

  /// Theorem 1's beta: P(jam HELLO | its code is compromised).
  [[nodiscard]] double beta() const noexcept { return beta_; }
  /// Theorem 1's beta': P(jam >= 1 of the 3 follow-ups | code compromised).
  [[nodiscard]] double beta_prime() const noexcept { return beta_prime_; }

 private:
  const CompromiseModel& compromise_;
  double beta_;
  double beta_prime_;
};

class ReactiveJammer final : public Jammer {
 public:
  /// `identification_probability` models how reliably J recognizes the code
  /// within the first 1/(1+mu) of a message (paper worst case: 1.0).
  ReactiveJammer(const CompromiseModel& compromise, const JammerParams& params,
                 double identification_probability = 1.0);

  [[nodiscard]] bool jams(CodeId code, MessageClass cls, Rng& rng) const override;
  [[nodiscard]] const char* name() const noexcept override { return "reactive"; }

 private:
  const CompromiseModel& compromise_;
  double ident_prob_;
};

/// The "intelligent attack" of paper §V-B: deliberately lets every HELLO
/// through (so the victim responder learns all shared codes, compromised
/// ones included) and then jams the three follow-up messages of any
/// sub-session running on a compromised code. Against the naive
/// pick-one-code receiver this converts every compromised-code choice into
/// a failed discovery; the x-fold redundancy design defeats it, because
/// the sub-session on any non-compromised shared code still completes.
class IntelligentJammer final : public Jammer {
 public:
  explicit IntelligentJammer(const CompromiseModel& compromise) : compromise_(compromise) {}

  [[nodiscard]] bool jams(CodeId code, MessageClass cls, Rng& /*rng*/) const override {
    if (cls != MessageClass::Followup) return false;
    return compromise_.is_code_compromised(code);
  }
  [[nodiscard]] const char* name() const noexcept override { return "intelligent"; }

 private:
  const CompromiseModel& compromise_;
};

/// A jammer that never jams (clean-channel baseline runs).
class NullJammer final : public Jammer {
 public:
  [[nodiscard]] bool jams(CodeId /*code*/, MessageClass /*cls*/, Rng& /*rng*/) const override {
    return false;
  }
  [[nodiscard]] const char* name() const noexcept override { return "none"; }
};

/// Chip-level jamming for the DSSS integration tests: transmissions that
/// cover a `jam_fraction` span of a `message_bits`-bit message spread with
/// `code` (whose first chip is at `victim_start`), beginning at message
/// fraction `start_fraction`. A reactive jammer cannot strike before it has
/// identified the code — the paper gives it the first 1/(1+mu) of the
/// message for that — so start_fraction is typically > 0. The jammer
/// spreads random bits with the (known) code in chip sync with the victim,
/// using `parallel_signals` of its z transmitters on the same pattern. At
/// amplitude >= 2 the jammer's chips dominate the victim's and covered bits
/// despread to jammer-chosen values (about half of them bit errors); at
/// amplitude 1 they cancel to noise (erasures). Both paths exercise the
/// Reed-Solomon errata decoder.
[[nodiscard]] std::vector<dsss::Transmission> make_chip_jamming(
    const dsss::SpreadCode& code, std::size_t victim_start, std::size_t message_bits,
    double jam_fraction, std::uint32_t parallel_signals, Rng& rng,
    double start_fraction = 0.0);

/// One jam pattern in caller-owned buffers, reused across strikes.
struct ChipJam {
  std::size_t start_chip = 0;  ///< absolute chip offset of chips
  BitVector payload;           ///< the jammer's random bits
  BitVector flipped;           ///< spread_into's inverted-code scratch
  BitVector chips;             ///< payload spread with the victim's code
};

/// The pattern each of make_chip_jamming's parallel signals carries, built
/// into `out` with the same Rng draws; the caller superposes it once per
/// signal. Returns false, drawing nothing, when the span covers no bits.
/// Allocation-free once `out`'s buffers have grown to the pattern's size.
bool make_chip_jam_into(const dsss::SpreadCode& code, std::size_t victim_start,
                        std::size_t message_bits, double jam_fraction, Rng& rng,
                        double start_fraction, ChipJam& out);

}  // namespace jrsnd::adversary
