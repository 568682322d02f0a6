// GEMM micro-kernels and small-path kernels. This TU is compiled with
// -ffp-contract=off — see gemm_kernels.h for why that flag is
// load-bearing for the bit-identity contract between the scalar and
// vector kernels.
#include "tensor/gemm_kernels.h"

#include <algorithm>

#include "util/scratch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace opad::detail {

void micro_kernel_scalar(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc, std::size_t rows,
                         std::size_t cols) {
  float acc[kMr][kNr] = {};
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    const float* b = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * b[j];
    }
  }
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] += acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += acc[r][j];
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

// One ymm accumulator per A row, vectorized across the kNr = 8 wide N
// dimension. Each vector lane is an independent scalar chain computing
// acc[r][j] += a[r] * b[j] with separate multiply and add roundings —
// bitwise identical to micro_kernel_scalar lane for lane. No FMA: the
// target attribute enables avx2 only, and the TU bans contraction.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    // Panels are kNr-float rows off a 64-byte arena lease: 32B-aligned.
    const __m256 bv = _mm256_load_ps(bp + kk * kNr);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(a + 0), bv));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), bv));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), bv));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), bv));
    acc4 = _mm256_add_ps(acc4, _mm256_mul_ps(_mm256_broadcast_ss(a + 4), bv));
    acc5 = _mm256_add_ps(acc5, _mm256_mul_ps(_mm256_broadcast_ss(a + 5), bv));
  }
  const __m256 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;  // C rows are unaligned in general
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc[r]));
    }
  } else {
    // Edge tile: spill to an aligned scratch tile, then add only the
    // live lanes into C — the same per-element adds the scalar kernel's
    // edge branch performs, so zero-padded lanes never leak.
    alignas(32) float tile[kMr][kNr];
    for (std::size_t r = 0; r < kMr; ++r) _mm256_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

// FMA variant: single-rounded fused multiply-adds. Strictly more
// accurate per step but NOT bitwise equal to the scalar/AVX2 chains —
// dispatched only on explicit opt-in (OPAD_GEMM_KERNEL=fma) or as the
// default of OPAD_NATIVE_ARCH builds, which already accept FMA-shifted
// numerics (see the incomplete_beta note in DESIGN.md).
__attribute__((target("avx2,fma"))) void micro_kernel_fma(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    const __m256 bv = _mm256_load_ps(bp + kk * kNr);
    acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), bv, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), bv, acc1);
    acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), bv, acc2);
    acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), bv, acc3);
    acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), bv, acc4);
    acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), bv, acc5);
  }
  const __m256 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc[r]));
    }
  } else {
    alignas(32) float tile[kMr][kNr];
    for (std::size_t r = 0; r < kMr; ++r) _mm256_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

// AVX-512 variant: the same separate-mul-then-add chains as scalar/AVX2
// but 16 lanes per register, so one zmm accumulator covers a whole
// kNrWide panel row. Lane j of accumulator r computes exactly the
// scalar chain acc[r][j] += a[r] * b[j] — no FMA (foundation target
// only, contraction banned TU-wide), so the result stays bitwise equal
// to the scalar kernel. Dispatched only after cpu_features().avx512f
// confirms zmm state is usable.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  __m512 acc4 = _mm512_setzero_ps(), acc5 = _mm512_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    // Panels are kNrWide-float rows off a 64-byte-aligned lease:
    // every row load is 64-byte aligned (asserted in gemm.cpp).
    const __m512 bv = _mm512_load_ps(bp + kk * kNrWide);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a[0]), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a[1]), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a[2]), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a[3]), bv));
    acc4 = _mm512_add_ps(acc4, _mm512_mul_ps(_mm512_set1_ps(a[4]), bv));
    acc5 = _mm512_add_ps(acc5, _mm512_mul_ps(_mm512_set1_ps(a[5]), bv));
  }
  const __m512 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNrWide) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;  // C rows are unaligned in general
      _mm512_storeu_ps(cr, _mm512_add_ps(_mm512_loadu_ps(cr), acc[r]));
    }
  } else {
    // Edge tile: spill and add only live lanes, as in the AVX2 kernel —
    // zero-padded lanes (and any NaN/Inf poison the padding suppressed)
    // never leak into C.
    alignas(64) float tile[kMr][kNrWide];
    for (std::size_t r = 0; r < kMr; ++r) _mm512_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

#endif  // x86

void small_kernel_scalar(std::size_t m, std::size_t n, std::size_t k,
                         std::size_t kc, const Operand& a, const Operand& b,
                         float* c) {
  // Per C element the association is the packed path's exactly:
  // ((C + S_0) + S_1) + ... with each kc-block sum S_p accumulated
  // k-ascending by one independent chain — only *which element*
  // advances next differs from the packed loop nest, never an
  // element's own chain, so the result is bitwise neutral.
  //
  // Row-accumulator form: one chain per output column held in a stack
  // buffer (the caller gates n <= kSmallPathRowBuffer), k in the middle.
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data + i * a.row_stride;
    float* c_row = c + i * n;
    for (std::size_t p0 = 0; p0 < k; p0 += kc) {
      const std::size_t kb = std::min(kc, k - p0);
      float s[kSmallPathRowBuffer] = {};
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const float av = a_row[(p0 + kk) * a.col_stride];
        const float* b_row = b.data + (p0 + kk) * b.row_stride;
        for (std::size_t j = 0; j < n; ++j) {
          s[j] += av * b_row[j * b.col_stride];
        }
      }
      for (std::size_t j = 0; j < n; ++j) c_row[j] += s[j];
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// The vector small kernels run the scalar kernel's chains in vector
// lanes: lane j of accumulator (r, q) is the chain of C element
// (row r, column q*width + j), started at zero, advanced k-ascending by
// one multiply and one add per step (one fused multiply-add in the fma
// kernel, as in micro_kernel_fma), and added into C once per k block.
// A tile of R rows x NB column blocks keeps R*NB independent chains in
// flight, enough to hide the add latency even for a single row. The
// last block of a row loads and stores through a lane mask: masked-off
// lanes read zeros instead of memory past B, and are never written back,
// so whatever they compute (0 * Inf is NaN) cannot leak into C.

/// One k block of row-major B ([kb, ldb], unit column stride) against
/// `m` rows of A (element (i, kk) at a[i * a_rs + kk * a_cs]), added
/// into C [m, n] with leading dimension n.
struct SmallBlock {
  std::size_t m, n, kb;
  const float* a;
  std::size_t a_rs, a_cs;
  const float* b;
  std::size_t ldb;
  float* c;
};

/// Copies the k block [p0, p0+kb) of a transposed B (stored [n, ks], so
/// effective element (p, j) sits at data[p + j * ks]) into row-major
/// [kb, n] at `dst`. 8x8 tiles go through registers: the two 128-bit
/// halves of each ymm load rows j and j+4, and two in-lane 4x4
/// transposes finish the job. Pure data movement, so it rounds nothing.
__attribute__((target("avx2"))) void transpose_block(const Operand& b,
                                                     std::size_t p0,
                                                     std::size_t kb,
                                                     std::size_t n,
                                                     float* dst) {
  const std::size_t ks = b.col_stride;
  const float* src = b.data + p0;
  std::size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    const float* s = src + j0 * ks;
    std::size_t p = 0;
    for (; p + 8 <= kb; p += 8) {
      __m256 r[8];
      for (std::size_t h = 0; h < 2; ++h) {
        for (std::size_t q = 0; q < 4; ++q) {
          r[4 * h + q] = _mm256_insertf128_ps(
              _mm256_castps128_ps256(_mm_loadu_ps(s + q * ks + p + 4 * h)),
              _mm_loadu_ps(s + (q + 4) * ks + p + 4 * h), 1);
        }
      }
      for (std::size_t h = 0; h < 2; ++h) {
        const __m256 t0 = _mm256_unpacklo_ps(r[4 * h], r[4 * h + 1]);
        const __m256 t1 = _mm256_unpackhi_ps(r[4 * h], r[4 * h + 1]);
        const __m256 t2 = _mm256_unpacklo_ps(r[4 * h + 2], r[4 * h + 3]);
        const __m256 t3 = _mm256_unpackhi_ps(r[4 * h + 2], r[4 * h + 3]);
        float* d = dst + (p + 4 * h) * n + j0;
        _mm256_storeu_ps(d, _mm256_shuffle_ps(t0, t2, 0x44));
        _mm256_storeu_ps(d + n, _mm256_shuffle_ps(t0, t2, 0xEE));
        _mm256_storeu_ps(d + 2 * n, _mm256_shuffle_ps(t1, t3, 0x44));
        _mm256_storeu_ps(d + 3 * n, _mm256_shuffle_ps(t1, t3, 0xEE));
      }
    }
    for (; p < kb; ++p) {
      for (std::size_t j = 0; j < 8; ++j) dst[p * n + j0 + j] = s[j * ks + p];
    }
  }
  for (; j0 < n; ++j0) {
    for (std::size_t p = 0; p < kb; ++p) dst[p * n + j0] = src[j0 * ks + p];
  }
}

/// The driver shared by the vector kernels: k blocks ascending, each
/// handed to `block` as row-major B — in place for plain B, through the
/// transposed copy otherwise.
template <void (*Block)(const SmallBlock&)>
void small_kernel_driver(std::size_t m, std::size_t n, std::size_t k,
                         std::size_t kc, const Operand& a, const Operand& b,
                         float* c) {
  const bool plain = b.col_stride == 1;
  ScratchArena::Lease copy;
  if (!plain) copy = ScratchArena::local().lease_floats(std::min(kc, k) * n);
  for (std::size_t p0 = 0; p0 < k; p0 += kc) {
    const std::size_t kb = std::min(kc, k - p0);
    SmallBlock blk{m, n, kb, a.data + p0 * a.col_stride, a.row_stride,
                   a.col_stride, nullptr, n, c};
    if (plain) {
      blk.b = b.data + p0 * b.row_stride;
      blk.ldb = b.row_stride;
    } else {
      transpose_block(b, p0, kb, n, copy.data());
      blk.b = copy.data();
    }
    Block(blk);
  }
}

// ---- 8-wide (ymm) ----------------------------------------------------

/// Rows per tile of the ymm kernel: R * NB accumulators plus NB B
/// vectors and one broadcast must fit the 16 ymm registers.
constexpr int kSmallRowsAvx2 = 2;
constexpr int kSmallBlocks = 4;

__attribute__((target("avx2"))) inline __m256i lane_mask8(std::size_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Fused = true replays micro_kernel_fma's chains instead: one
/// single-rounded multiply-add per step. The non-fused instantiation
/// carries no fused instruction even under the fma target, because the
/// TU bans contraction (the same guarantee an -march=native build of
/// the avx2 kernels rests on).
template <bool Fused, int R, int NB>
__attribute__((target("avx2,fma"))) void small_tile_avx2(
    const SmallBlock& blk, std::size_t i, std::size_t j, __m256i tail) {
  __m256 acc[R][NB];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NB; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  const float* a = blk.a + i * blk.a_rs;
  for (std::size_t kk = 0; kk < blk.kb; ++kk) {
    const float* b = blk.b + kk * blk.ldb + j;
    __m256 bv[NB];
#pragma GCC unroll 4
    for (int q = 0; q + 1 < NB; ++q) bv[q] = _mm256_loadu_ps(b + 8 * q);
    bv[NB - 1] = _mm256_maskload_ps(b + 8 * (NB - 1), tail);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * blk.a_rs + kk * blk.a_cs]);
#pragma GCC unroll 4
      for (int q = 0; q < NB; ++q) {
        if constexpr (Fused) {
          acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
        } else {
          acc[r][q] = _mm256_add_ps(acc[r][q], _mm256_mul_ps(av, bv[q]));
        }
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float* cr = blk.c + (i + r) * blk.n + j;
#pragma GCC unroll 4
    for (int q = 0; q + 1 < NB; ++q) {
      _mm256_storeu_ps(cr + 8 * q,
                       _mm256_add_ps(_mm256_loadu_ps(cr + 8 * q), acc[r][q]));
    }
    float* cl = cr + 8 * (NB - 1);
    _mm256_maskstore_ps(
        cl, tail, _mm256_add_ps(_mm256_maskload_ps(cl, tail), acc[r][NB - 1]));
  }
}

template <bool Fused, int R>
__attribute__((target("avx2,fma"))) void small_rows_avx2(const SmallBlock& blk,
                                                         std::size_t i) {
  const std::size_t blocks = (blk.n + 7) / 8;
  const __m256i full = _mm256_set1_epi32(-1);
  const __m256i tail = lane_mask8(blk.n - (blocks - 1) * 8);
  std::size_t q = 0;
  for (; q + kSmallBlocks < blocks; q += kSmallBlocks) {
    small_tile_avx2<Fused, R, kSmallBlocks>(blk, i, 8 * q, full);
  }
  switch (blocks - q) {
    case 4: small_tile_avx2<Fused, R, 4>(blk, i, 8 * q, tail); break;
    case 3: small_tile_avx2<Fused, R, 3>(blk, i, 8 * q, tail); break;
    case 2: small_tile_avx2<Fused, R, 2>(blk, i, 8 * q, tail); break;
    default: small_tile_avx2<Fused, R, 1>(blk, i, 8 * q, tail); break;
  }
}

template <bool Fused>
__attribute__((target("avx2,fma"))) void small_block_avx2(
    const SmallBlock& blk) {
  std::size_t i = 0;
  for (; i + kSmallRowsAvx2 <= blk.m; i += kSmallRowsAvx2) {
    small_rows_avx2<Fused, kSmallRowsAvx2>(blk, i);
  }
  if (i < blk.m) small_rows_avx2<Fused, 1>(blk, i);
}

// ---- 16-wide (zmm) ---------------------------------------------------

/// Rows per tile of the zmm kernel: 16 accumulators, 4 B vectors and a
/// broadcast stay well inside the 32 zmm registers.
constexpr int kSmallRowsAvx512 = 4;

template <int R, int NB>
__attribute__((target("avx512f"))) void small_tile_avx512(
    const SmallBlock& blk, std::size_t i, std::size_t j, __mmask16 tail) {
  __m512 acc[R][NB];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NB; ++q) acc[r][q] = _mm512_setzero_ps();
  }
  const float* a = blk.a + i * blk.a_rs;
  for (std::size_t kk = 0; kk < blk.kb; ++kk) {
    const float* b = blk.b + kk * blk.ldb + j;
    __m512 bv[NB];
#pragma GCC unroll 4
    for (int q = 0; q + 1 < NB; ++q) bv[q] = _mm512_loadu_ps(b + 16 * q);
    bv[NB - 1] = _mm512_maskz_loadu_ps(tail, b + 16 * (NB - 1));
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * blk.a_rs + kk * blk.a_cs]);
#pragma GCC unroll 4
      for (int q = 0; q < NB; ++q) {
        acc[r][q] = _mm512_add_ps(acc[r][q], _mm512_mul_ps(av, bv[q]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float* cr = blk.c + (i + r) * blk.n + j;
#pragma GCC unroll 4
    for (int q = 0; q + 1 < NB; ++q) {
      _mm512_storeu_ps(cr + 16 * q,
                       _mm512_add_ps(_mm512_loadu_ps(cr + 16 * q), acc[r][q]));
    }
    float* cl = cr + 16 * (NB - 1);
    _mm512_mask_storeu_ps(
        cl, tail,
        _mm512_add_ps(_mm512_maskz_loadu_ps(tail, cl), acc[r][NB - 1]));
  }
}

template <int R>
__attribute__((target("avx512f"))) void small_rows_avx512(
    const SmallBlock& blk, std::size_t i) {
  const std::size_t blocks = (blk.n + 15) / 16;
  const auto tail =
      static_cast<__mmask16>((1u << (blk.n - (blocks - 1) * 16)) - 1u);
  std::size_t q = 0;
  for (; q + kSmallBlocks < blocks; q += kSmallBlocks) {
    small_tile_avx512<R, kSmallBlocks>(blk, i, 16 * q, 0xFFFF);
  }
  switch (blocks - q) {
    case 4: small_tile_avx512<R, 4>(blk, i, 16 * q, tail); break;
    case 3: small_tile_avx512<R, 3>(blk, i, 16 * q, tail); break;
    case 2: small_tile_avx512<R, 2>(blk, i, 16 * q, tail); break;
    default: small_tile_avx512<R, 1>(blk, i, 16 * q, tail); break;
  }
}

__attribute__((target("avx512f"))) void small_block_avx512(
    const SmallBlock& blk) {
  std::size_t i = 0;
  for (; i + kSmallRowsAvx512 <= blk.m; i += kSmallRowsAvx512) {
    small_rows_avx512<kSmallRowsAvx512>(blk, i);
  }
  switch (blk.m - i) {
    case 3: small_rows_avx512<3>(blk, i); break;
    case 2: small_rows_avx512<2>(blk, i); break;
    case 1: small_rows_avx512<1>(blk, i); break;
    default: break;
  }
}

}  // namespace

void small_kernel_avx2(std::size_t m, std::size_t n, std::size_t k,
                       std::size_t kc, const Operand& a, const Operand& b,
                       float* c) {
  small_kernel_driver<small_block_avx2<false>>(m, n, k, kc, a, b, c);
}

void small_kernel_fma(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t kc, const Operand& a, const Operand& b,
                      float* c) {
  small_kernel_driver<small_block_avx2<true>>(m, n, k, kc, a, b, c);
}

void small_kernel_avx512(std::size_t m, std::size_t n, std::size_t k,
                         std::size_t kc, const Operand& a, const Operand& b,
                         float* c) {
  small_kernel_driver<small_block_avx512>(m, n, k, kc, a, b, c);
}

#endif  // x86

}  // namespace opad::detail
