// Internal micro-kernels behind the GEMM driver (gemm.cpp): the packed
// route's register-tile kernels and the small-matrix path's kernels.
//
// Every floating-point accumulation of the GEMM lives in this TU, which
// the build compiles with -ffp-contract=off (see src/tensor/CMakeLists):
// the compiler may never fuse the separate multiply and add into an FMA
// behind our back, so the scalar and AVX2 kernels produce bit-identical
// results on every build type, including -march=native. The FMA kernel
// is the one deliberate exception — it uses explicit fused intrinsics
// and is documented as numerically divergent (DESIGN.md "SIMD
// micro-kernel dispatch").
//
// All kernels share one contract: kb steps of a kMr x nr register tile
// over packed panels, one independent accumulator chain per C element,
// k consumed in ascending order, padded lanes masked out of the
// write-back. The scalar, AVX2 and AVX-512 kernels perform, per element
// and per k step, one rounding after the multiply and one after the add
// — the vector kernels merely evaluate 8 (ymm) or 16 (zmm) such
// independent chains per register, so their lanes are bitwise equal to
// the scalar chains. Panel width nr only decides *which* element's
// chain advances next, never the order within a chain, so kNr- and
// kNrWide-packed runs of the same product are bitwise interchangeable.
// The small-path kernels keep the same chains while reading A and B in
// place (see SmallKernelFn below).
#pragma once

#include <cstddef>

namespace opad::detail {

// Register micro-tile shape shared by driver packing and kernels. 6x8
// keeps the accumulators (12 SSE / 6 AVX registers) plus one broadcast
// and one B vector inside the x86-64 register file. The AVX-512 kernel
// widens the panel to 6x16 — six zmm accumulators — which halves the
// loop trips per B strip without leaving the 32-register zmm file.
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 8;
inline constexpr std::size_t kNrWide = 16;

/// View of a GEMM operand in its effective (post-transpose) orientation.
struct Operand {
  const float* data;
  std::size_t row_stride;
  std::size_t col_stride;

  float at(std::size_t r, std::size_t c) const {
    return data[r * row_stride + c * col_stride];
  }
};

/// kb steps of the register tile over a packed kMr-row A panel and a
/// packed nr-column B panel (both kk-major), adding the block sum into
/// the [rows, cols] top-left corner of C (leading dimension ldc). Each
/// kernel's `bp` alignment contract equals its B-row byte width —
/// 32 bytes for the kNr = 8 kernels (AVX2/FMA aligned 256-bit loads),
/// 64 bytes for the kNrWide = 16 AVX-512 kernel (aligned 512-bit
/// loads); the driver leases the workspace at the kernel's alignment
/// and asserts it before dispatch (see gemm.cpp).
using MicroKernelFn = void (*)(std::size_t kb, const float* ap,
                               const float* bp, float* c, std::size_t ldc,
                               std::size_t rows, std::size_t cols);

void micro_kernel_scalar(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc, std::size_t rows,
                         std::size_t cols);

#if defined(__x86_64__) || defined(__i386__)
// Compiled with per-function target attributes so the portable build
// carries them too; only ever dispatched after cpu_features() confirms
// the ISA is usable on the running machine.
void micro_kernel_avx2(std::size_t kb, const float* ap, const float* bp,
                       float* c, std::size_t ldc, std::size_t rows,
                       std::size_t cols);
void micro_kernel_fma(std::size_t kb, const float* ap, const float* bp,
                      float* c, std::size_t ldc, std::size_t rows,
                      std::size_t cols);
/// kMr x kNrWide tile (the only kernel with a 16-wide panel); bitwise
/// identical to the scalar chains like micro_kernel_avx2.
void micro_kernel_avx512(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc, std::size_t rows,
                         std::size_t cols);
#endif

/// Stack row-accumulator width of the scalar small-path kernel; the
/// fast-path gate keeps n at or below it.
inline constexpr std::size_t kSmallPathRowBuffer = 256;

/// Small-matrix fast path: computes C += op(A) * op(B) directly from the
/// strided operands, skipping pack_a/pack_b. The caller must guarantee
/// n <= kSmallPathRowBuffer and a row-major C with leading dimension n.
/// Every kernel replays its packed kernel's association exactly — per C
/// element one accumulator per kc-sized k block (k ascending), blocks
/// added to C in ascending order — so each is bitwise identical to the
/// packed route of its dispatch for every shape: the scalar, AVX2 and
/// AVX-512 ones (separate multiply and add) to the scalar packed kernel,
/// the FMA one (fused multiply-add) to micro_kernel_fma. A is only ever
/// broadcast, so either layout of A is read in place.
using SmallKernelFn = void (*)(std::size_t m, std::size_t n, std::size_t k,
                               std::size_t kc, const Operand& a,
                               const Operand& b, float* c);

/// Portable reference: one row of chains in a stack buffer, B read in
/// place in either layout.
void small_kernel_scalar(std::size_t m, std::size_t n, std::size_t k,
                         std::size_t kc, const Operand& a, const Operand& b,
                         float* c);

#if defined(__x86_64__) || defined(__i386__)
/// 8-wide (ymm) and 16-wide (zmm) register tiles over row-major B with
/// masked tail lanes, so they never read past B or write past C. A
/// transposed B is transposed one k block at a time into the calling
/// thread's ScratchArena first. Dispatched only after cpu_features()
/// confirms the ISA, like the packed micro-kernels. small_kernel_fma is
/// the 8-wide tile with fused chains.
void small_kernel_avx2(std::size_t m, std::size_t n, std::size_t k,
                       std::size_t kc, const Operand& a, const Operand& b,
                       float* c);
void small_kernel_fma(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t kc, const Operand& a, const Operand& b,
                      float* c);
void small_kernel_avx512(std::size_t m, std::size_t n, std::size_t k,
                         std::size_t kc, const Operand& a, const Operand& b,
                         float* c);
#endif

}  // namespace opad::detail
