#include "common/cpu_features.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "obs/metrics_registry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace jrsnd {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// XCR0 via XGETBV: which register state the OS saves across context
/// switches. Bit 1 = SSE (XMM), bit 2 = AVX (YMM), bits 5-7 = AVX-512
/// (opmask, ZMM low, ZMM high).
std::uint64_t xcr0() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures probe() noexcept {
  CpuFeatures f;
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  // __get_cpuid checks the extended leaf exists before reading it.
  if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) != 0) {
    f.invariant_tsc = (edx & (1U << 8)) != 0;
  }
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool osxsave = (ecx & (1U << 27)) != 0;
  const bool cpu_sse41 = (ecx & (1U << 19)) != 0;

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool cpu_avx2 = (ebx & (1U << 5)) != 0;
  const bool cpu_avx512f = (ebx & (1U << 16)) != 0;
  const bool cpu_sha = (ebx & (1U << 29)) != 0;
  const bool cpu_vpopcntdq = (ecx & (1U << 14)) != 0;

  f.sha = cpu_sha && cpu_sse41;  // XMM only: no XCR0 requirement
  if (!osxsave) return f;  // OS saves no extended state: no YMM/ZMM backend

  const std::uint64_t xsave = xcr0();
  const bool ymm_ok = (xsave & 0x6) == 0x6;           // XMM + YMM
  const bool zmm_ok = (xsave & 0xE6) == 0xE6;         // + opmask/ZMM

  f.avx2 = cpu_avx2 && ymm_ok;
  f.avx512_vpopcntdq = cpu_avx512f && cpu_vpopcntdq && zmm_ok;
  return f;
}

#elif defined(__aarch64__)

CpuFeatures probe() noexcept {
  CpuFeatures f;
  f.neon = true;  // Advanced SIMD is architecturally mandatory on AArch64
  return f;
}

#else

CpuFeatures probe() noexcept { return CpuFeatures{}; }

#endif

void install(SimdBackend backend) {
  detail::g_simd_level.store(static_cast<std::uint8_t>(1 + static_cast<int>(backend)),
                             std::memory_order_relaxed);
  // Direct registry write (not the macro): like prof.backend, the gauge must
  // reflect the live dispatch target even with metrics collection disabled.
  obs::registry().gauge("simd.backend").set(static_cast<double>(backend));
}

SimdBackend clamp_to_supported(SimdBackend request) noexcept {
  if (simd_backend_supported(request)) return request;
  if (request == SimdBackend::kAvx512 && simd_backend_supported(SimdBackend::kAvx2)) {
    return SimdBackend::kAvx2;
  }
  return SimdBackend::kScalar;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

const char* simd_backend_name(SimdBackend backend) noexcept {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kAvx512:
      return "avx512";
    case SimdBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool simd_backend_supported(SimdBackend backend) noexcept {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
#if defined(__x86_64__)
    case SimdBackend::kAvx2:
      return cpu_features().avx2;
    case SimdBackend::kAvx512:
      return cpu_features().avx512_vpopcntdq;
#elif defined(__aarch64__)
    case SimdBackend::kNeon:
      return cpu_features().neon;
#endif
    default:
      return false;
  }
}

namespace detail {

std::atomic<std::uint8_t> g_simd_level{0};

SimdBackend resolve_simd_backend() {
  // The best the hardware admits: each entry outranks the ones before it.
  SimdBackend chosen = SimdBackend::kScalar;
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kAvx512, SimdBackend::kNeon}) {
    if (simd_backend_supported(b)) chosen = b;
  }
  if (const char* env = std::getenv("JRSND_SIMD"); env != nullptr && env[0] != '\0') {
    bool known = false;
    for (const SimdBackend b : {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512,
                                SimdBackend::kNeon}) {
      if (std::strcmp(env, simd_backend_name(b)) == 0) {
        chosen = clamp_to_supported(b);
        known = true;
      }
    }
    if (!known) {
      JRSND_WARN("simd") << "unknown JRSND_SIMD value '" << env
                         << "' (want scalar|avx2|avx512|neon); using " << simd_backend_name(chosen);
    }
  }
  install(chosen);
  return chosen;
}

}  // namespace detail

SimdBackend set_simd_backend(SimdBackend backend) {
  const SimdBackend installed = clamp_to_supported(backend);
  install(installed);
  return installed;
}

}  // namespace jrsnd
