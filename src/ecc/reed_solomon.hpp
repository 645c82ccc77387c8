// Systematic Reed-Solomon code RS(n, k) over GF(2^8) with full errata
// decoding (simultaneous error + erasure correction).
//
// The paper (§V-B, ref [15]) encodes every neighbor-discovery message with an
// ECC that tolerates a fraction mu/(1+mu) of bit errors *or losses*. RS(n, k)
// corrects e errors and f erasures whenever 2e + f <= n - k, so a rate
// k/n = 1/(1+mu) code tolerates exactly a mu/(1+mu) erasure fraction —
// matching the paper's claim when the DSSS correlator flags sub-threshold
// bits as erasures (see src/ecc/ecc_codec.hpp for the bit<->symbol bridge).
//
// Decoder pipeline: syndromes -> erasure locator -> Forney syndromes ->
// Berlekamp-Massey (errors) -> combined errata locator -> Chien search ->
// Forney magnitude algorithm.
//
// Fast paths for the transmit hot loop:
//   * the encoder is a table-driven LFSR — each leading byte's contribution
//     to the parity register (byte * generator tail) is precomputed at
//     construction, so encode is one XOR-row per data symbol;
//   * the decoder exits right after the syndrome pass when every syndrome is
//     zero (the overwhelmingly common clean-channel case), skipping
//     Sugiyama/Chien/Forney entirely;
//   * with a caller-reused DecodeScratch neither path allocates: the errata
//     pipeline's polynomials live in the scratch too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace jrsnd::ecc {

class ReedSolomon {
 public:
  /// Reusable decode workspace. Every path — the clean (all-zero-syndrome)
  /// exit and the errata pipeline run on jammed or corrupted words alike —
  /// works only in these buffers, so reusing one scratch across calls makes
  /// decoding allocation-free in the steady state. Polynomials are
  /// ascending-order coefficient vectors.
  struct DecodeScratch {
    std::vector<std::uint8_t> cw;         ///< working codeword copy
    std::vector<std::uint8_t> erased;     ///< per-position erasure flags (dedupe)
    std::vector<std::uint8_t> syndromes;  ///< S_j, j = 0..2t-1
    std::vector<std::uint8_t> gamma;      ///< erasure locator
    std::vector<std::uint8_t> r_prev, r_cur, t_prev, t_cur;  ///< Sugiyama pairs
    std::vector<std::uint8_t> q, product;                     ///< one Euclid step
    std::vector<std::uint8_t> psi, psi_deriv;                 ///< errata locator, Psi'
    std::vector<int> errata_indices;              ///< Chien roots as codeword indices
    std::vector<std::uint8_t> errata_locators;    ///< their X = alpha^p
  };

  /// Decode strategy: kAuto takes the all-zero-syndrome early exit; kForceFull
  /// always runs the full errata pipeline (equivalence tests only — both
  /// modes return identical results by construction).
  enum class DecodeMode { kAuto, kForceFull };

  /// Constructs RS(n, k): n total symbols, k data symbols, n - k parity.
  /// Preconditions: 0 < k < n <= 255.
  ReedSolomon(int n, int k);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int parity() const noexcept { return n_ - k_; }

  /// Encodes k data symbols into n codeword symbols (systematic: data first,
  /// parity appended). Precondition: data.size() == k.
  [[nodiscard]] std::vector<std::uint8_t> encode(std::span<const std::uint8_t> data) const;

  /// encode() into a caller-owned buffer (cleared and refilled to n
  /// symbols); allocation-free once `out`'s capacity covers n.
  void encode_into(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out) const;

  /// Decodes a received word of n symbols. `erasures` lists symbol positions
  /// known to be unreliable (each in [0, n), duplicates ignored). Returns the
  /// k data symbols, or nullopt if the errata are beyond the code's
  /// correction capability (2e + f > n - k) or decoding is inconsistent.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> decode(
      std::span<const std::uint8_t> received, std::span<const int> erasures = {}) const;

  /// decode() into a caller-owned buffer, reusing `scratch` across calls.
  /// Returns whether decoding succeeded; on success `out` holds the k data
  /// symbols. Identical results to decode() in every mode.
  [[nodiscard]] bool decode_into(std::span<const std::uint8_t> received,
                                 std::span<const int> erasures, std::vector<std::uint8_t>& out,
                                 DecodeScratch& scratch,
                                 DecodeMode mode = DecodeMode::kAuto) const;

 private:
  int n_;
  int k_;
  std::vector<std::uint8_t> generator_;  // generator polynomial, ascending powers
  // LFSR encode table: row v (256 rows of parity() bytes) holds
  // v * generator tail, so absorbing one data symbol is one row XOR.
  std::vector<std::uint8_t> encode_table_;
};

}  // namespace jrsnd::ecc
