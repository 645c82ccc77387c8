// The physical-layer seam between the protocol engines and the two
// evaluation planes (DESIGN.md §4.1).
//
// Protocol engines (dndp.cpp, mndp.cpp) are written once against PhyModel.
// Two implementations exist:
//   * AbstractPhy — applies the per-message jamming-success model proved in
//     Theorem 1 (used by the 2000-node Monte-Carlo that regenerates the
//     paper's figures);
//   * ChipPhy — actually ECC-encodes, spreads, superposes jamming chips,
//     synchronizes and de-spreads (used by tests/examples to validate that
//     the abstract model matches the real physical layer).
#pragma once

#include <optional>
#include <utility>

#include "common/bit_vector.hpp"
#include "common/types.hpp"
#include "dsss/spread_code.hpp"

namespace jrsnd::core {

/// Protocol role of a transmission; decides which Theorem-1 probability
/// (beta vs beta') applies and whether the code is a pool or session code.
enum class TxClass {
  Hello,          ///< D-NDP HELLO (pool code)
  Confirm,        ///< D-NDP CONFIRM (pool code, first of the follow-up trio)
  Auth,           ///< D-NDP authentication messages (pool code, follow-ups)
  SessionUnicast, ///< M-NDP request/response over an established session code
  SessionHello,   ///< M-NDP final HELLO over the freshly derived session code
  SessionConfirm, ///< M-NDP final CONFIRM over the session code
};

/// The spread code of a transmission: pool codes carry their pool id (the
/// jammer may have compromised them); session codes carry kInvalidCode.
/// `pattern` supplies the actual chips; AbstractPhy ignores it and ChipPhy
/// requires it.
struct TxCode {
  CodeId id = kInvalidCode;
  const dsss::SpreadCode* pattern = nullptr;
};

class PhyModel {
 public:
  virtual ~PhyModel() = default;

  /// Announces the start of a D-NDP sub-session between (a, b) on pool code
  /// `code`. AbstractPhy draws the sub-session's jamming fate here so the
  /// three follow-up messages share one group-level jam event, matching
  /// Theorem 1's beta'.
  virtual void begin_subsession(NodeId a, NodeId b, CodeId code) = 0;

  /// Attempts to deliver `payload` from `from` to `to`, spread with `code`.
  /// Returns the bits the receiver recovered, or nullopt when the message
  /// was lost (out of range, jammed beyond ECC tolerance, or revoked code).
  [[nodiscard]] virtual std::optional<BitVector> transmit(NodeId from, NodeId to, TxCode code,
                                                          TxClass cls,
                                                          const BitVector& payload) = 0;

  /// The second entry point: transmit() into a caller-owned buffer, which
  /// the D-NDP engine reuses for every frame it receives. Returns whether
  /// the message was delivered; on delivery `out` holds exactly the bits
  /// transmit() would have returned, otherwise `out` is unspecified. A
  /// PHY's two entry points make the same decisions and the same Rng draws.
  ///
  /// The default forwards to transmit() and moves its result into `out`, so
  /// a PHY that overrides only transmit() keeps working: FaultyPhy, whose
  /// faults rewrite an owned copy, the decorators of bench/e2e, and test
  /// doubles. AbstractPhy, ChipPhy and TracingPhy implement this one and
  /// make transmit() a one-line wrapper over it (into_optional), so a warm
  /// `out` costs them no allocation. The two entry points collapse into
  /// this one once the bench's decorators move onto it.
  [[nodiscard]] virtual bool transmit_into(NodeId from, NodeId to, TxCode code, TxClass cls,
                                           const BitVector& payload, BitVector& out) {
    std::optional<BitVector> rx = transmit(from, to, code, cls, payload);
    if (!rx) return false;
    out = std::move(*rx);
    return true;
  }

 protected:
  /// transmit() over transmit_into(): the wrapper library PHYs use.
  [[nodiscard]] std::optional<BitVector> into_optional(NodeId from, NodeId to, TxCode code,
                                                       TxClass cls, const BitVector& payload) {
    BitVector out;
    if (!transmit_into(from, to, code, cls, payload, out)) return std::nullopt;
    return out;
  }
};

}  // namespace jrsnd::core
