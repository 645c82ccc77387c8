#include "dsss/sliding_window.hpp"

#include <cassert>

#include "dsss/prepared_codebook.hpp"
#include "dsss/sync_kernel.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"

namespace jrsnd::dsss {

namespace {

/// Per-thread lane scratch for the batched kernel's hamming outputs. Grows
/// to the largest lane_count seen by this thread and is then reused, so a
/// steady-state scan allocates nothing (each thread-pool worker warms its
/// own scratch on its first scan).
std::uint64_t* lane_scratch(std::size_t lanes) {
  static thread_local std::vector<std::uint64_t> scratch;
  if (scratch.size() < lanes) scratch.resize(lanes);
  return scratch.data();
}

/// Where the batched scan first synchronized.
struct ScanPos {
  std::size_t code = 0;    ///< candidate index within the group
  std::size_t offset = 0;  ///< chip offset of the synchronized window
};

/// The batched sync search: one pass over the chip buffer scores every code
/// in the group per window via BatchShiftTable::hamming_all, then applies
/// the threshold in candidate order — so the (offset, code) it reports is
/// exactly the one the per-code loop would have found, and `below_tau`
/// advances by the number of candidates the per-code loop would have
/// rejected before it. This loop is the paper's t_p = rho*N*m*f hot path:
/// zero allocation (thread-local scratch), zero bit-shifting, and one
/// buffer-word load feeding every candidate on the active SIMD backend.
bool batch_sync_search(const BitVector& buffer, const BatchShiftTable& batch,
                       std::size_t needed, double tau, std::size_t start_offset, ScanPos& pos,
                       std::uint64_t& below_tau) {
  JRSND_PERF_REGION("dsss.sync.batch_scan");
  const std::size_t m = batch.size();
  const std::size_t lanes = batch.lane_count();
  const HammingBounds bounds = hamming_bounds(batch.length(), tau);
  const std::span<std::uint64_t> hams{lane_scratch(lanes), lanes};
  for (std::size_t offset = start_offset; offset + needed <= buffer.size(); ++offset) {
    batch.hamming_all(buffer, offset, hams);
    // Almost every window is below tau on every lane: reduce "any lane
    // past the bounds" without a branch per lane, and only on a hit look
    // for the first such lane in candidate order.
    std::uint64_t past = 0;
    for (std::size_t c = 0; c < m; ++c) past |= bounds.past(hams[c]);
    if ((past >> 63) != 0) {
      std::size_t c = 0;
      while ((bounds.past(hams[c]) >> 63) == 0) ++c;
      pos.code = c;
      pos.offset = offset;
      below_tau += c;
      return true;
    }
    below_tau += m;
  }
  return false;
}

/// The shared scan core: every find_first entry point — per-call batch
/// table, cached PreparedCodebook table, optional-returning or into-a-hit
/// — runs this loop, so their results are bit-identical by construction.
/// Once the search locks on, the message is despread from the hit's batch
/// lane. With a caller-reused `out` the whole call is allocation-free in the
/// steady state.
bool scan_first(const BitVector& buffer, const BatchShiftTable& batch, std::size_t message_bits,
                double tau, std::size_t start_offset, SyncHit& out) {
  if (batch.empty() || message_bits == 0) return false;
  const std::size_t needed = message_bits * batch.length();
  if (buffer.size() < needed) return false;

  JRSND_COUNT("dsss.sync.scans");
  JRSND_PERF_REGION("dsss.sync.scan");
  std::uint64_t below_tau = 0;
  ScanPos pos;
  if (batch_sync_search(buffer, batch, needed, tau, start_offset, pos, below_tau)) {
    out.code_index = pos.code;
    out.chip_offset = pos.offset;
    despread_into(buffer, pos.offset, message_bits, batch, pos.code, tau, out.message);
    JRSND_COUNT("dsss.sync.hits");
    JRSND_COUNT_N("dsss.sync.windows_below_tau", below_tau);
    return true;
  }
  JRSND_COUNT("dsss.sync.misses");
  JRSND_COUNT_N("dsss.sync.windows_below_tau", below_tau);
  return false;
}

/// Shared find_all core over a batch group (see scan_first).
std::vector<SyncHit> scan_all(const BitVector& buffer, const BatchShiftTable& batch,
                              std::size_t message_bits, double tau) {
  std::vector<SyncHit> hits;
  if (batch.empty() || message_bits == 0) return hits;
  const std::size_t needed = message_bits * batch.length();

  std::size_t offset = 0;
  std::uint64_t below_tau = 0;
  ScanPos pos;
  while (batch_sync_search(buffer, batch, needed, tau, offset, pos, below_tau)) {
    SyncHit hit;
    hit.code_index = pos.code;
    hit.chip_offset = pos.offset;
    despread_into(buffer, pos.offset, message_bits, batch, pos.code, tau, hit.message);
    hits.push_back(std::move(hit));
    offset = pos.offset + needed;  // resume after the recovered message
  }
  return hits;
}

}  // namespace

std::optional<SyncHit> find_first_message(const BitVector& buffer,
                                          std::span<const SpreadCode> codes,
                                          std::size_t message_bits, double tau,
                                          std::size_t start_offset) {
  if (codes.empty()) return std::nullopt;
  assert(uniform_code_lengths(codes) && "find_first_message: mixed candidate code lengths");
  if (!uniform_code_lengths(codes)) return std::nullopt;

  // One batched table for the whole candidate group, built once per scan and
  // amortized over the ~f * m window correlations. Callers that scan the
  // same codebook repeatedly should prefer the PreparedCodebook overload,
  // which caches this step across calls.
  const BatchShiftTable batch(codes);
  SyncHit hit;
  if (scan_first(buffer, batch, message_bits, tau, start_offset, hit)) return hit;
  return std::nullopt;
}

std::optional<SyncHit> find_first_message(const BitVector& buffer,
                                          const PreparedCodebook& codebook,
                                          std::size_t message_bits, double tau,
                                          std::size_t start_offset) {
  SyncHit hit;
  if (find_first_message_into(buffer, codebook, message_bits, tau, start_offset, hit)) {
    return hit;
  }
  return std::nullopt;
}

bool find_first_message_into(const BitVector& buffer, const PreparedCodebook& codebook,
                             std::size_t message_bits, double tau, std::size_t start_offset,
                             SyncHit& out) {
  assert(codebook.uniform_lengths() && "find_first_message: mixed candidate code lengths");
  if (!codebook.uniform_lengths()) return false;
  return scan_first(buffer, codebook.batch_table(), message_bits, tau, start_offset, out);
}

std::vector<SyncHit> find_all_messages(const BitVector& buffer, std::span<const SpreadCode> codes,
                                       std::size_t message_bits, double tau) {
  if (codes.empty()) return {};
  assert(uniform_code_lengths(codes) && "find_all_messages: mixed candidate code lengths");
  if (!uniform_code_lengths(codes)) return {};

  return scan_all(buffer, BatchShiftTable(codes), message_bits, tau);
}

std::vector<SyncHit> find_all_messages(const BitVector& buffer, const PreparedCodebook& codebook,
                                       std::size_t message_bits, double tau) {
  assert(codebook.uniform_lengths() && "find_all_messages: mixed candidate code lengths");
  if (!codebook.uniform_lengths()) return {};
  return scan_all(buffer, codebook.batch_table(), message_bits, tau);
}

std::size_t scan_correlation_count(std::size_t buffer_chips, std::size_t code_count,
                                   std::size_t code_length) {
  if (buffer_chips < code_length) return 0;
  return (buffer_chips - code_length + 1) * code_count;
}

}  // namespace jrsnd::dsss
