// Cache-blocked packed single-precision GEMM with runtime-dispatched
// SIMD micro-kernels.
//
// One kernel backs all three matmul variants in tensor_ops.cpp: the
// operands are described by an optional transpose flag and the driver
// packs whatever layout it is given into contiguous tile panels, so the
// inner micro-kernel only ever sees unit-stride data. The micro-kernel
// itself is selected once per process from {scalar, avx2, fma, avx512}
// by cpuid-based detection (src/util/cpu_features.h), overridable with
// the OPAD_GEMM_KERNEL environment variable or set_gemm_kernel().
//
// Determinism contract (DESIGN.md "Threading model" / "GEMM kernel" /
// "SIMD micro-kernel dispatch"): the accumulation order of every C
// element is a pure function of the problem shape — k is consumed in
// fixed kc-sized blocks in ascending order with one independent
// accumulator chain per element inside each block — and the C tile grid
// is a pure function of (m, n), so results are bit-identical for any
// OPAD_THREADS value. The scalar, AVX2 and AVX-512 kernels round
// identically (separate multiply + add per step; the kernel TU is built
// with -ffp-contract=off) and are bitwise interchangeable — panel width
// (8 vs 16) only reorders *between* independent element chains, never
// within one; the FMA kernel is single-rounded and numerically
// divergent, so it is never selected by default on portable builds. The
// small-matrix fast path skips packing but replays the same association
// in its own scalar, 8-wide and 16-wide kernels, so it is bitwise
// neutral too (under fma it runs the 8-wide kernel with fused chains,
// bitwise equal to the fused packed kernel).
#pragma once

#include <cstddef>

namespace opad {

/// Storage layout of a GEMM operand.
enum class GemmTranspose {
  kNone,       ///< stored as the effective matrix (row-major)
  kTranspose,  ///< stored row-major as the transpose of the effective matrix
};

/// Micro-kernel implementations selectable at runtime.
enum class GemmKernel {
  kScalar,  ///< portable reference; bit-identity baseline
  kAvx2,    ///< 8-wide over N, separate mul+add; bitwise equal to kScalar
  kFma,     ///< fused multiply-add; faster but numerically divergent
  kAvx512,  ///< 16-wide over N, separate mul+add; bitwise equal to kScalar
};

/// Human-readable kernel name ("scalar" / "avx2" / "fma" / "avx512"),
/// matching the OPAD_GEMM_KERNEL spellings.
const char* gemm_kernel_name(GemmKernel kernel);

/// Whether the running CPU can execute `kernel`. kScalar is always
/// supported.
bool gemm_kernel_supported(GemmKernel kernel);

/// The kernel the next gemm() call will dispatch to. On first use this
/// resolves OPAD_GEMM_KERNEL (scalar|avx2|fma|avx512; unknown or
/// unsupported values are ignored with a warning) and otherwise
/// defaults to the fastest bit-identity-preserving kernel the CPU
/// supports (avx512 > avx2 > scalar) — fma only becomes the default on
/// OPAD_NATIVE_ARCH builds, which already accept FMA-shifted numerics.
GemmKernel active_gemm_kernel();

/// The warn+fallback resolution behind the OPAD_GEMM_KERNEL override:
/// parses `name` and returns the requested kernel when this CPU
/// supports it, otherwise logs a warning and returns the built-in
/// default. Exposed so tests can pin the fallback behaviour without
/// re-execing under a doctored environment.
GemmKernel resolve_gemm_kernel_choice(const char* name);

/// Overrides the dispatched kernel for the whole process (tests, bench
/// harnesses). Throws PreconditionError if the CPU does not support it.
void set_gemm_kernel(GemmKernel kernel);

/// Gate of the small-matrix fast path that skips pack_a/pack_b: taken
/// iff m <= kGemmSmallPathMaxRows, n <= kGemmSmallPathMaxCols and m*n*k
/// <= gemm_small_path_limit(). The BM_MatMulSkinny bench (bench_m1_micro)
/// measured the small kernels beating the packed route at every m up to
/// 64 on 64-wide products, in all three layouts (plain, B transposed,
/// A transposed), under the avx512 and avx2 kernels. So every product of
/// a 32-row training step or attack lane batch runs here: the forward
/// X*W, the input gradient G*W^T and the weight gradient X^T*G, whose m
/// is the layer's fan-in. So do a dense layer on one sample and a service
/// micro-batch. At 256 columns and a full k block the small kernels win
/// up to 16 rows; beyond that the packed route's parallel C tiles catch
/// up under avx2 at 4 threads, so the m*n*k ceiling stays at that
/// [16, 256] x [256, 256] product. See DESIGN.md "SIMD micro-kernel
/// dispatch" for the data behind all three values.
inline constexpr std::size_t kGemmSmallPathMaxRows = 64;
inline constexpr std::size_t kGemmSmallPathMaxCols = 256;
inline constexpr std::size_t kGemmSmallPathDefaultLimit =
    16 * kGemmSmallPathMaxCols * 256;

/// Current fast-path m*n*k ceiling. 0 means the fast path is disabled
/// and every shape takes the packed route.
std::size_t gemm_small_path_limit();

/// Overrides the fast-path ceiling (tests pin it to 0 or SIZE_MAX to
/// force one route over the qualifying shapes).
void set_gemm_small_path_limit(std::size_t mnk_limit);

/// Whether gemm() routes an [m, k] x [k, n] product through the
/// small-matrix fast path under the current limit.
bool gemm_takes_small_path(std::size_t m, std::size_t n, std::size_t k);

/// Work estimate of one packed-route gemm() call, in padded
/// multiply-adds: rows rounded up to the micro-kernel height, columns to
/// the widest panel, plus weighted costs for packing A (once per column
/// tile) and B (once per row tile) and for writing C back once per k
/// block. A pure function of the shape. See DESIGN.md "GEMM kernel".
std::size_t gemm_work(std::size_t m, std::size_t n, std::size_t k);

/// gemm() runs its C-tile grid inline on the caller, instead of
/// dispatching it to the thread pool, when gemm_work(m, n, k) is below
/// this. Measured on a 4-core AVX-512 host: waking and joining the pool
/// costs 10-35 us, which splitting the product repays only beyond about
/// 2.5M units. The grid itself is unchanged, so the gate never changes a
/// result.
inline constexpr std::size_t kGemmInlineWork = 2'500'000;

/// C += op(A) * op(B) where op(A) is [m, k], op(B) is [k, n] and C is a
/// dense row-major [m, n] buffer the caller has initialised (matmul
/// zero-fills it). `trans_a` == kTranspose means `a` is stored [k, m];
/// `trans_b` == kTranspose means `b` is stored [n, k].
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          GemmTranspose trans_a, const float* b, GemmTranspose trans_b,
          float* c);

namespace detail {

/// The active kernel's small-path kernel on C += op(A) * op(B), bypassing
/// the gate (n must still be <= kGemmSmallPathMaxCols). The
/// BM_MatMulSmall / BM_MatMulSkinny benches time it against the packed
/// route on either side of the gate.
void gemm_small(std::size_t m, std::size_t n, std::size_t k, const float* a,
                GemmTranspose trans_a, const float* b, GemmTranspose trans_b,
                float* c);

}  // namespace detail
}  // namespace opad
