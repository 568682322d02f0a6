#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "tensor/gemm_kernels.h"
#include "util/cpu_features.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/scratch.h"

namespace opad {
namespace {

using detail::kMr;
using detail::kNr;
using detail::Operand;

// Cache blocking. C is cut into kMc x kNc tiles — the unit of
// parallelism: every C element is computed entirely inside one tile, so
// the schedule can never change a result. Within a tile, k is consumed
// in kKc-sized blocks; the packed A block (kMc*kKc floats = 48 KB) and
// the kNr-wide B strip the micro-kernel walks (8 KB) stay cache-resident
// while the tile's C rows stream through.
constexpr std::size_t kMc = 48;   // multiple of kMr
constexpr std::size_t kNc = 256;  // multiple of every kernel's panel width
constexpr std::size_t kKc = 256;
static_assert(kNc % detail::kNrWide == 0 && kNc % kNr == 0);

// The fast-path gate promises the scalar small kernel an n that fits its
// stack row-accumulator buffer.
static_assert(kGemmSmallPathMaxCols == detail::kSmallPathRowBuffer);

/// View of an effective [rows, cols] operand stored as given by `trans`.
Operand operand(const float* data, GemmTranspose trans, std::size_t rows,
                std::size_t cols) {
  return trans == GemmTranspose::kNone ? Operand{data, cols, 1}
                                       : Operand{data, 1, rows};
}

/// Packs rows [i0, i0+mb) x k-block [p0, p0+kb) of A into kMr-row
/// panels laid out kk-major, so the micro-kernel reads kMr contiguous
/// floats per k step. Rows past mb are zero-padded; their accumulators
/// are discarded on write-back, so padding never leaks into C (not even
/// as NaN from 0 * Inf against non-finite B values).
void pack_a(const Operand& a, std::size_t i0, std::size_t mb, std::size_t p0,
            std::size_t kb, float* ap) {
  const std::size_t panels = (mb + kMr - 1) / kMr;
  for (std::size_t p = 0; p < panels; ++p) {
    float* dst = ap + p * kMr * kb;
    const std::size_t base = i0 + p * kMr;
    const std::size_t rows = std::min(kMr, i0 + mb - base);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      for (std::size_t r = 0; r < rows; ++r) {
        dst[kk * kMr + r] = a.at(base + r, p0 + kk);
      }
      for (std::size_t r = rows; r < kMr; ++r) dst[kk * kMr + r] = 0.0f;
    }
  }
}

/// Packs k-block [p0, p0+kb) x columns [j0, j0+nb) of B into nr-column
/// panels, kk-major, zero-padding columns past nb (discarded on
/// write-back like the A padding). Each panel starts nr*kb floats past
/// the workspace base and each kk row is nr floats — 32 bytes at
/// nr = kNr, 64 bytes at nr = kNrWide — so with the workspace leased at
/// the kernel's row width every B row the micro-kernel loads carries
/// the alignment its vector loads assume.
void pack_b(const Operand& b, std::size_t p0, std::size_t kb, std::size_t j0,
            std::size_t nb, std::size_t nr, float* bp) {
  const std::size_t panels = (nb + nr - 1) / nr;
  for (std::size_t p = 0; p < panels; ++p) {
    float* dst = bp + p * nr * kb;
    const std::size_t base = j0 + p * nr;
    const std::size_t cols = std::min(nr, j0 + nb - base);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      for (std::size_t c = 0; c < cols; ++c) {
        dst[kk * nr + c] = b.at(p0 + kk, base + c);
      }
      for (std::size_t c = cols; c < nr; ++c) dst[kk * nr + c] = 0.0f;
    }
  }
}

/// A kernel's dispatch parameters: packed micro-kernel entry point, its
/// B-panel width (also the byte alignment, in floats, its packed-B loads
/// assume), and the small-path kernel that replays the packed kernel's
/// chains, so the two routes agree bitwise under every kernel.
struct KernelPlan {
  detail::MicroKernelFn fn;
  std::size_t nr;
  detail::SmallKernelFn small;
};

KernelPlan kernel_plan(GemmKernel kernel) {
#if defined(__x86_64__) || defined(__i386__)
  switch (kernel) {
    case GemmKernel::kAvx2:
      return {detail::micro_kernel_avx2, kNr, detail::small_kernel_avx2};
    case GemmKernel::kFma:
      return {detail::micro_kernel_fma, kNr, detail::small_kernel_fma};
    case GemmKernel::kAvx512:
      return {detail::micro_kernel_avx512, detail::kNrWide,
              detail::small_kernel_avx512};
    default:
      return {detail::micro_kernel_scalar, kNr, detail::small_kernel_scalar};
  }
#else
  (void)kernel;
  return {detail::micro_kernel_scalar, kNr, detail::small_kernel_scalar};
#endif
}

/// The dispatch default: fastest kernel that keeps the portable
/// bit-identity contract. FMA only becomes the default when the build
/// opted into native numerics (OPAD_NATIVE_ARCH defines this macro).
GemmKernel default_kernel() {
  const CpuFeatures& cpu = cpu_features();
#if defined(OPAD_NATIVE_ARCH_BUILD)
  if (cpu.fma) return GemmKernel::kFma;
#endif
  if (cpu.avx512f) return GemmKernel::kAvx512;
  if (cpu.avx2) return GemmKernel::kAvx2;
  return GemmKernel::kScalar;
}

bool parse_kernel_name(const char* name, GemmKernel* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = GemmKernel::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = GemmKernel::kAvx2;
  } else if (std::strcmp(name, "fma") == 0) {
    *out = GemmKernel::kFma;
  } else if (std::strcmp(name, "avx512") == 0) {
    *out = GemmKernel::kAvx512;
  } else {
    return false;
  }
  return true;
}

GemmKernel resolve_initial_kernel() {
  if (const char* env = std::getenv("OPAD_GEMM_KERNEL")) {
    return resolve_gemm_kernel_choice(env);
  }
  return default_kernel();
}

/// Selected kernel; read on every gemm() call (possibly from pool
/// workers running nested products), written only by set_gemm_kernel.
std::atomic<GemmKernel>& kernel_state() {
  static std::atomic<GemmKernel> state{resolve_initial_kernel()};
  return state;
}

std::atomic<std::size_t>& small_path_limit_state() {
  static std::atomic<std::size_t> state{kGemmSmallPathDefaultLimit};
  return state;
}

}  // namespace

const char* gemm_kernel_name(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar: return "scalar";
    case GemmKernel::kAvx2: return "avx2";
    case GemmKernel::kAvx512: return "avx512";
    default: return "fma";
  }
}

bool gemm_kernel_supported(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar: return true;
    case GemmKernel::kAvx2: return cpu_features().avx2;
    case GemmKernel::kAvx512: return cpu_features().avx512f;
    default: return cpu_features().fma;
  }
}

GemmKernel active_gemm_kernel() {
  return kernel_state().load(std::memory_order_relaxed);
}

GemmKernel resolve_gemm_kernel_choice(const char* name) {
  GemmKernel requested;
  if (!parse_kernel_name(name, &requested)) {
    OPAD_WARN << "OPAD_GEMM_KERNEL=" << name
              << " is not one of scalar|avx2|fma|avx512; using the default";
  } else if (!gemm_kernel_supported(requested)) {
    OPAD_WARN << "OPAD_GEMM_KERNEL=" << name
              << " is not supported by this CPU; using the default";
  } else {
    return requested;
  }
  return default_kernel();
}

void set_gemm_kernel(GemmKernel kernel) {
  OPAD_EXPECTS_MSG(gemm_kernel_supported(kernel),
                   "GEMM kernel '" << gemm_kernel_name(kernel)
                                   << "' is not supported by this CPU");
  kernel_state().store(kernel, std::memory_order_relaxed);
}

std::size_t gemm_work(std::size_t m, std::size_t n, std::size_t k) {
  // Relative costs fitted to serial timings of ~100 shapes: a packed
  // element (scalar strided gather) costs about 64 multiply-adds, a C
  // element written back (load, add, store) about 16.
  constexpr std::size_t kPackCost = 64;
  constexpr std::size_t kStoreCost = 16;
  const std::size_t rows = (m + kMr - 1) / kMr * kMr;
  const std::size_t cols = (n + detail::kNrWide - 1) / detail::kNrWide *
                           detail::kNrWide;
  const std::size_t tiles_m = (m + kMc - 1) / kMc;
  const std::size_t tiles_n = (n + kNc - 1) / kNc;
  const std::size_t k_blocks = (k + kKc - 1) / kKc;
  return rows * cols * k + kStoreCost * rows * cols * k_blocks +
         kPackCost * (rows * tiles_n + cols * tiles_m) * k;
}

std::size_t gemm_small_path_limit() {
  return small_path_limit_state().load(std::memory_order_relaxed);
}

void set_gemm_small_path_limit(std::size_t mnk_limit) {
  small_path_limit_state().store(mnk_limit, std::memory_order_relaxed);
}

bool gemm_takes_small_path(std::size_t m, std::size_t n, std::size_t k) {
  // (k <= limit/m/n is the overflow-safe form of m*n*k <= limit.)
  const std::size_t limit = gemm_small_path_limit();
  return limit > 0 && m > 0 && n > 0 && m <= kGemmSmallPathMaxRows &&
         n <= kGemmSmallPathMaxCols && k <= limit / m / n;
}

namespace detail {

void gemm_small(std::size_t m, std::size_t n, std::size_t k, const float* a,
                GemmTranspose trans_a, const float* b, GemmTranspose trans_b,
                float* c) {
  OPAD_EXPECTS(n <= kGemmSmallPathMaxCols);
  if (m == 0 || n == 0 || k == 0) return;
  kernel_plan(active_gemm_kernel())
      .small(m, n, k, kKc, operand(a, trans_a, m, k),
             operand(b, trans_b, k, n), c);
}

}  // namespace detail

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          GemmTranspose trans_a, const float* b, GemmTranspose trans_b,
          float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  const Operand a_op = operand(a, trans_a, m, k);
  const Operand b_op = operand(b, trans_b, k, n);
  // Small-matrix fast path: for row-skinny products (a dense layer on a
  // single sample, a few surviving attack lanes) packing B costs as much
  // as the product itself, so the small kernel reads the operands in
  // place. Serial, but the same accumulation association — bitwise
  // neutral (and trivially OPAD_THREADS-independent).
  const KernelPlan plan = kernel_plan(active_gemm_kernel());
  if (gemm_takes_small_path(m, n, k)) {
    plan.small(m, n, k, kKc, a_op, b_op, c);
    return;
  }
  const std::size_t nr = plan.nr;
  // Each packed-B panel row is nr floats; leasing the workspace at that
  // byte width keeps every row the kernel vector-loads aligned. The A
  // block sits first, so the B block's offset must preserve the lease
  // alignment for the widest kernel's 64-byte rows.
  const std::size_t bp_align = nr * sizeof(float);
  static_assert(kMc * kKc * sizeof(float) %
                    (detail::kNrWide * sizeof(float)) ==
                0);
  const std::size_t tiles_m = (m + kMc - 1) / kMc;
  const std::size_t tiles_n = (n + kNc - 1) / kNc;
  // One chunk per C tile: the grid depends only on (m, n), and a tile's
  // packing + accumulation happen entirely inside its chunk, so the
  // result is independent of OPAD_THREADS by construction — and of
  // whether the work gate below runs the grid inline or on the pool.
  const auto run_tiles = [&](std::size_t lo, std::size_t hi) {
    auto workspace =
        ScratchArena::local().lease_floats(kMc * kKc + kNc * kKc, bp_align);
    float* ap = workspace.data();
    float* bp = workspace.data() + kMc * kKc;
    OPAD_EXPECTS(reinterpret_cast<std::uintptr_t>(bp) % bp_align == 0);
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t i0 = (t / tiles_n) * kMc;
      const std::size_t j0 = (t % tiles_n) * kNc;
      const std::size_t mb = std::min(kMc, m - i0);
      const std::size_t nb = std::min(kNc, n - j0);
      const std::size_t m_panels = (mb + kMr - 1) / kMr;
      const std::size_t n_panels = (nb + nr - 1) / nr;
      for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
        const std::size_t kb = std::min(kKc, k - p0);
        pack_a(a_op, i0, mb, p0, kb, ap);
        pack_b(b_op, p0, kb, j0, nb, nr, bp);
        // jr outer / ir inner: the nr-wide B strip stays hot in L1
        // while every A panel of the tile streams past it.
        for (std::size_t pn = 0; pn < n_panels; ++pn) {
          const std::size_t jb = j0 + pn * nr;
          const std::size_t cols = std::min(nr, n - jb);
          for (std::size_t pm = 0; pm < m_panels; ++pm) {
            const std::size_t ib = i0 + pm * kMr;
            const std::size_t rows = std::min(kMr, m - ib);
            plan.fn(kb, ap + pm * kMr * kb, bp + pn * nr * kb,
                    c + ib * n + jb, n, rows, cols);
          }
        }
      }
    }
  };
  // Work gate: a shape-only estimate, never the thread count, decides
  // whether the pool dispatch pays for itself.
  if (gemm_work(m, n, k) < kGemmInlineWork) {
    run_tiles(0, tiles_m * tiles_n);
  } else {
    parallel_for(0, tiles_m * tiles_n, 1, run_tiles);
  }
}

}  // namespace opad
