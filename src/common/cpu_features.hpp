// Runtime CPU feature probe and the process-wide SIMD dispatch level.
//
// Two kernels dispatch on it: the batched sync correlator
// (dsss/sync_kernel.hpp: AVX-512/VPOPCNTDQ, AVX2, NEON or scalar popcount)
// and the SHA-256 compression under every MAC, PRF and signature
// (crypto/sha256.hpp: SHA-NI when the CPU has it and the level is not
// scalar, the scalar body otherwise). Both read the one level resolved here,
// so a single JRSND_SIMD override or set_simd_backend() call moves them
// together, and one `simd.backend` gauge says where they run.
//
// The probe checks both the CPU capability bits (CPUID leaf 7) and the OS
// context-save support (OSXSAVE + XCR0): a kernel that does not preserve
// ZMM state makes the AVX-512 bits in CPUID meaningless, so both must agree
// before a vector backend is reported usable. SHA-NI touches only XMM
// registers, which every x86-64 OS saves, so its bit needs no XCR0 check.
//
// The same probe reports the invariant TSC that obs::clock_ns() reads
// (obs/clock.hpp) instead of the monotonic clock.
#pragma once

#include <atomic>
#include <cstdint>

namespace jrsnd {

struct CpuFeatures {
  bool avx2 = false;              ///< AVX2 usable (CPUID + OS YMM state)
  bool avx512_vpopcntdq = false;  ///< AVX-512F + VPOPCNTDQ usable (+ OS ZMM state)
  bool neon = false;              ///< Advanced SIMD (always true on aarch64)
  bool sha = false;               ///< SHA extensions + SSE4.1 (XMM state only)
  bool invariant_tsc = false;     ///< TSC ticks at a constant rate in every
                                  ///< C/P-state (CPUID 0x80000007 EDX[8])
};

/// The probed feature set, resolved once per process. Never throws; on
/// non-x86, non-aarch64 targets every x86/NEON flag reads false.
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

/// SIMD dispatch level. Numeric values are published through the
/// `simd.backend` gauge (mirroring `prof.backend`).
enum class SimdBackend : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

[[nodiscard]] const char* simd_backend_name(SimdBackend backend) noexcept;

/// Whether this process can run `backend` (compiled in AND supported by the
/// CPU/OS per cpu_features()). kScalar is always available.
[[nodiscard]] bool simd_backend_supported(SimdBackend backend) noexcept;

namespace detail {
/// 0 = unresolved; otherwise 1 + SimdBackend value. Relaxed ordering is
/// enough: resolution is a pure function of process-constant inputs (CPUID,
/// environment), so racing first-callers install the same value.
extern std::atomic<std::uint8_t> g_simd_level;
SimdBackend resolve_simd_backend();
}  // namespace detail

/// The level every SIMD kernel dispatches to, resolved once: the JRSND_SIMD
/// environment override (scalar|avx2|avx512|neon; unsupported requests
/// clamp like set_simd_backend, unknown values warn) when set, otherwise the
/// best the hardware admits. Resolution publishes the `simd.backend` gauge;
/// every later call is one relaxed load.
[[nodiscard]] inline SimdBackend simd_backend() {
  const std::uint8_t v = detail::g_simd_level.load(std::memory_order_relaxed);
  if (v != 0) return static_cast<SimdBackend>(v - 1);
  return detail::resolve_simd_backend();
}

/// Forces the level (tests, benches). Unsupported requests clamp to the best
/// supported backend at or below the request (kNeon requests on x86 clamp to
/// kScalar). Updates the `simd.backend` gauge and returns the backend
/// actually installed.
SimdBackend set_simd_backend(SimdBackend backend);

}  // namespace jrsnd
