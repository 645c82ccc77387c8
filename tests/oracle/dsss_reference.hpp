// Reference oracles for the chip-level receive path (paper §§III-V): the
// per-chip soft-sum channel, the per-code ShiftTable kernel and the
// slice-based sliding-window scans. The bit-sliced channel
// (dsss/chip_channel.hpp) and the batched correlator (dsss/sync_kernel.hpp,
// dsss/sliding_window.hpp) are tested and benchmarked against them;
// production code never calls them.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_vector.hpp"
#include "common/rng.hpp"
#include "dsss/correlator.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"

namespace jrsnd::oracle {

/// The textbook chip channel: one signed soft sum per chip, every
/// transmission added chip by chip, and a hard sign decision per chip on
/// receive (ties and silence draw rng.bernoulli(0.5), in chip order). The
/// semantics dsss::ChipChannel must reproduce bit for bit, Rng draw for
/// Rng draw.
class ReferenceChipChannel {
 public:
  explicit ReferenceChipChannel(std::size_t duration_chips)
      : soft_(duration_chips, 0), active_(duration_chips, 0) {}

  /// Superposes `chips` at `start_chip`; parts outside the window are
  /// clipped.
  void add(std::size_t start_chip, const BitVector& chips);

  [[nodiscard]] const std::vector<int>& soft() const noexcept { return soft_; }
  [[nodiscard]] const std::vector<std::uint8_t>& active() const noexcept { return active_; }

  /// Positive sum -> 1, negative -> 0, zero -> rng.bernoulli(0.5).
  [[nodiscard]] BitVector receive(Rng& rng) const;

 private:
  std::vector<int> soft_;
  std::vector<std::uint8_t> active_;
};

/// A candidate code precomputed at all 64 word alignments. Row s holds the
/// code's chips shifted to start at bit s of a word boundary; correlating
/// the window at chip offset i reduces to XOR + popcount of row i % 64
/// against the buffer words from i / 64 on, with only the two edge words
/// masked (their masks derive from s alone). The single-code form of
/// dsss::BatchShiftTable: identical integer Hamming distances, one code at
/// a time.
class ShiftTable {
 public:
  explicit ShiftTable(const dsss::SpreadCode& code);

  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Hamming distance to the window at `bit_offset`; allocation-free,
  /// shift-free. Precondition: bit_offset + length() <= buffer.size().
  /// Defined inline: this is the body of the per-code scan's hot loop.
  [[nodiscard]] std::size_t hamming(const BitVector& buffer, std::size_t bit_offset) const {
    const std::size_t s = bit_offset % kWordBits;
    const std::uint64_t* buf = buffer.words().data() + bit_offset / kWordBits;
    const std::uint64_t* row = rows_.data() + s * stride_;
    const std::size_t nw = (s + length_ + kWordBits - 1) / kWordBits;
    // Bits of the first word before s and of the last word past the code are
    // live buffer bits outside the window; the rows hold zeros there, so the
    // two edge masks silence them. Interior words need no mask.
    const std::uint64_t first = ~std::uint64_t{0} >> s;
    const std::size_t valid = (s + length_ - 1) % kWordBits + 1;
    const std::uint64_t last = ~std::uint64_t{0} << (kWordBits - valid);
    if (nw == 1) {
      return static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first & last));
    }
    std::size_t h = static_cast<std::size_t>(std::popcount((buf[0] ^ row[0]) & first));
    for (std::size_t k = 1; k + 1 < nw; ++k) {
      h += static_cast<std::size_t>(std::popcount(buf[k] ^ row[k]));
    }
    h += static_cast<std::size_t>(std::popcount((buf[nw - 1] ^ row[nw - 1]) & last));
    return h;
  }

  /// (N - 2 * hamming) / N, identical to SpreadCode::correlate on a slice.
  [[nodiscard]] double correlate(const BitVector& buffer, std::size_t bit_offset) const {
    return dsss::correlation_from_hamming(length_, hamming(buffer, bit_offset));
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  std::size_t length_ = 0;
  std::size_t stride_ = 0;  ///< words per alignment row (worst case, s = 63)
  std::vector<std::uint64_t> rows_;  ///< 64 rows of stride_ words: code >> s
};

/// One ShiftTable per candidate code — the per-code reference form the
/// batched kernel is tested and benchmarked against.
[[nodiscard]] std::vector<ShiftTable> build_shift_tables(std::span<const dsss::SpreadCode> codes);

/// dsss::despread / dsss::despread_bit over a ShiftTable: same decisions and
/// bit-identical correlations, each window correlated with zero allocation
/// and zero bit-shifting.
[[nodiscard]] dsss::DespreadResult despread(const BitVector& chips, std::size_t start,
                                            std::size_t bit_count, const ShiftTable& code,
                                            double tau);
[[nodiscard]] dsss::DespreadBit despread_bit(const BitVector& chips, std::size_t start,
                                             const ShiftTable& code, double tau);

/// Reference oracle for dsss::find_first_message: the straightforward
/// slice-based scan (one BitVector window per chip position, shared across
/// candidates — not one per (position, code) pair). Byte-identical results
/// to the kernel path by construction; bumps no counters.
[[nodiscard]] std::optional<dsss::SyncHit> find_first_message_reference(
    const BitVector& buffer, std::span<const dsss::SpreadCode> codes, std::size_t message_bits,
    double tau, std::size_t start_offset = 0);

/// Reference oracle for dsss::find_all_messages (see
/// find_first_message_reference).
[[nodiscard]] std::vector<dsss::SyncHit> find_all_messages_reference(
    const BitVector& buffer, std::span<const dsss::SpreadCode> codes, std::size_t message_bits,
    double tau);

}  // namespace jrsnd::oracle
