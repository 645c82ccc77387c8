// Heap-allocation counter for the zero-allocation gates (perf_alloc_test,
// bench/dos_throughput).
//
// Linking the jrsnd_counting_alloc object library replaces the global
// operator new/delete with malloc/free wrappers that count every allocation.
// The replacement is process-wide, so only binaries whose allocations are
// meant to be audited link it.
#pragma once

#include <cstdint>

namespace jrsnd::oracle {

/// Heap allocations (every operator new form) since process start.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace jrsnd::oracle
