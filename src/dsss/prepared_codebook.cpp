#include "dsss/prepared_codebook.hpp"

#include <algorithm>

#include "obs/metrics_registry.hpp"

namespace jrsnd::dsss {

void PreparedCodebook::assign(std::vector<SpreadCode> codes) {
  codes_ = std::move(codes);
  uniform_ = uniform_code_lengths(codes_);
  batch_ = BatchShiftTable();
  built_.store(false, std::memory_order_release);
}

bool PreparedCodebook::assign_if_changed(std::span<const SpreadCode> codes) {
  const bool same = codes.size() == codes_.size() &&
                    std::equal(codes.begin(), codes.end(), codes_.begin());
  if (same) {
    JRSND_COUNT("dsss.prepared.codebook.hits");
    return false;
  }
  JRSND_COUNT("dsss.prepared.codebook.rebuilds");
  assign(std::vector<SpreadCode>(codes.begin(), codes.end()));
  return true;
}

const BatchShiftTable& PreparedCodebook::batch_table() const {
  // Double-checked: the acquire load pairs with the release store below, so
  // a reader that sees built_ == true also sees the fully-built batch_.
  if (built_.load(std::memory_order_acquire)) {
    JRSND_COUNT("dsss.prepared.tables.hits");
    return batch_;
  }
  const std::lock_guard<std::mutex> lock(build_mutex_);
  if (!built_.load(std::memory_order_relaxed)) {
    JRSND_COUNT("dsss.prepared.tables.builds");
    if (uniform_ && !codes_.empty()) batch_ = BatchShiftTable(codes_);
    built_.store(true, std::memory_order_release);
  } else {
    JRSND_COUNT("dsss.prepared.tables.hits");
  }
  return batch_;
}

const PreparedCodebook& NodeCodebookCache::prepare(NodeId id, std::span<const SpreadCode> codes) {
  PreparedCodebook& cached = entry(id);
  cached.assign_if_changed(codes);
  return cached;
}

PreparedCodebook& NodeCodebookCache::entry(NodeId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                             [](const auto& entry, NodeId key) { return entry.first < key; });
  if (it == entries_.end() || it->first != id) {
    it = entries_.emplace(it, id, std::make_unique<PreparedCodebook>());
  }
  return *it->second;
}

}  // namespace jrsnd::dsss
