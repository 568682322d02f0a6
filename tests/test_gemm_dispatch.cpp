// Runtime micro-kernel dispatch for the packed GEMM (DESIGN.md "SIMD
// micro-kernel dispatch"): cpuid-gated kernel selection, the bitwise
// scalar == avx2 identity contract across randomized shapes and thread
// counts, the tolerance-based double-precision oracle for the
// deliberately divergent FMA kernel, and the no-pack small-matrix fast
// path's bitwise neutrality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/cpu_features.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace opad {
namespace {

/// Restores the dispatched kernel, fast-path limit, and global pool on
/// scope exit so test order never matters.
struct DispatchGuard {
  GemmKernel kernel = active_gemm_kernel();
  std::size_t limit = gemm_small_path_limit();
  ~DispatchGuard() {
    set_gemm_kernel(kernel);
    set_gemm_small_path_limit(limit);
    ThreadPool::configure_global(0);
  }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

enum class Variant { kPlain, kTransposeA, kTransposeB };
constexpr Variant kVariants[] = {Variant::kPlain, Variant::kTransposeA,
                                 Variant::kTransposeB};

Shape stored_a(Variant v, std::size_t m, std::size_t k) {
  return v == Variant::kTransposeA ? Shape{k, m} : Shape{m, k};
}
Shape stored_b(Variant v, std::size_t k, std::size_t n) {
  return v == Variant::kTransposeB ? Shape{n, k} : Shape{k, n};
}

Tensor run_variant(Variant v, const Tensor& a, const Tensor& b) {
  switch (v) {
    case Variant::kPlain: return matmul(a, b);
    case Variant::kTransposeA: return matmul_transpose_a(a, b);
    default: return matmul_transpose_b(a, b);
  }
}

double oracle_entry(Variant v, const Tensor& a, const Tensor& b,
                    std::size_t i, std::size_t j, std::size_t k) {
  double ref = 0.0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float av = v == Variant::kTransposeA ? a(kk, i) : a(i, kk);
    const float bv = v == Variant::kTransposeB ? b(j, kk) : b(kk, j);
    ref += static_cast<double>(av) * static_cast<double>(bv);
  }
  return ref;
}

TEST(CpuFeaturesDetection, ConsistentWithKernelSupport) {
  const CpuFeatures& cpu = cpu_features();
  // FMA kernel support implies AVX2 support by construction (the fused
  // kernel also uses 256-bit loads).
  EXPECT_TRUE(!cpu.fma || cpu.avx2);
  // avx512bw usable implies avx512f usable (same XCR0 zmm state).
  EXPECT_TRUE(!cpu.avx512bw || cpu.avx512f);
  EXPECT_TRUE(gemm_kernel_supported(GemmKernel::kScalar));
  EXPECT_EQ(gemm_kernel_supported(GemmKernel::kAvx2), cpu.avx2);
  EXPECT_EQ(gemm_kernel_supported(GemmKernel::kFma), cpu.fma);
  EXPECT_EQ(gemm_kernel_supported(GemmKernel::kAvx512), cpu.avx512f);
#if defined(__x86_64__)
  EXPECT_TRUE(cpu.sse2);  // architectural baseline
#endif
}

TEST(CpuFeaturesDetection, FeatureStringListsDetectedExtensions) {
  const CpuFeatures& cpu = cpu_features();
  const std::string s = cpu_features_string();
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.find("avx2") != std::string::npos, cpu.avx2);
  EXPECT_EQ(s.find("avx512f") != std::string::npos, cpu.avx512f);
  EXPECT_EQ(s.find("avx512bw") != std::string::npos, cpu.avx512bw);
  if (!cpu.sse2 && !cpu.avx2 && !cpu.fma && !cpu.avx512f) {
    EXPECT_EQ(s, "none");
  }
}

TEST(GemmDispatch, ActiveKernelIsSupportedAndSettable) {
  DispatchGuard guard;
  EXPECT_TRUE(gemm_kernel_supported(active_gemm_kernel()));
  for (GemmKernel k : {GemmKernel::kScalar, GemmKernel::kAvx2,
                       GemmKernel::kFma, GemmKernel::kAvx512}) {
    if (gemm_kernel_supported(k)) {
      set_gemm_kernel(k);
      EXPECT_EQ(active_gemm_kernel(), k);
    } else {
      EXPECT_THROW(set_gemm_kernel(k), PreconditionError);
    }
  }
}

TEST(GemmDispatch, KernelNamesMatchEnvSpellings) {
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kScalar), "scalar");
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kAvx2), "avx2");
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kFma), "fma");
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kAvx512), "avx512");
}

/// Captures OPAD_WARN lines for the duration of a scope.
struct WarnCapture {
  std::vector<std::string> lines;
  LogSink previous;
  WarnCapture() {
    previous = set_log_sink([this](LogLevel level, const std::string& msg) {
      if (level == LogLevel::kWarn) lines.push_back(msg);
    });
  }
  ~WarnCapture() { set_log_sink(std::move(previous)); }
};

// The env override must never crash or silently pick an unusable
// kernel: unknown spellings and unsupported-on-this-CPU requests both
// warn once and fall back to the dispatch default.
TEST(GemmDispatch, EnvOverrideFallsBackWithWarningOnBadNames) {
  {
    WarnCapture capture;
    const GemmKernel resolved = resolve_gemm_kernel_choice("avx1024");
    EXPECT_TRUE(gemm_kernel_supported(resolved));
    ASSERT_EQ(capture.lines.size(), 1u);
    EXPECT_NE(capture.lines[0].find("avx1024"), std::string::npos);
    EXPECT_NE(capture.lines[0].find("not one of"), std::string::npos);
  }
  for (GemmKernel k : {GemmKernel::kScalar, GemmKernel::kAvx2,
                       GemmKernel::kFma, GemmKernel::kAvx512}) {
    WarnCapture capture;
    const GemmKernel resolved =
        resolve_gemm_kernel_choice(gemm_kernel_name(k));
    EXPECT_TRUE(gemm_kernel_supported(resolved));
    if (gemm_kernel_supported(k)) {
      // Supported spellings resolve verbatim, silently.
      EXPECT_EQ(resolved, k);
      EXPECT_TRUE(capture.lines.empty());
    } else {
      // e.g. OPAD_GEMM_KERNEL=avx512 on a non-AVX-512 host: warn and
      // serve the default instead of crashing on an illegal instruction.
      ASSERT_EQ(capture.lines.size(), 1u);
      EXPECT_NE(capture.lines[0].find("not supported"), std::string::npos);
    }
  }
}

// The load-bearing contract of the dispatcher: the AVX2 kernel is a
// lane-for-lane re-encoding of the scalar accumulation chains, so the
// two must agree to the last bit on every shape, layout, and thread
// count. Randomized shapes on top of fixed edge cases so each run
// explores new tile remainders.
TEST(GemmDispatch, ScalarAndAvx2BitwiseIdenticalOverRandomizedShapes) {
  if (!gemm_kernel_supported(GemmKernel::kAvx2)) {
    GTEST_SKIP() << "AVX2 not supported on this CPU";
  }
  DispatchGuard guard;
  set_gemm_small_path_limit(0);  // exercise the packed kernels only
  Rng shape_rng(20260806);
  struct Case {
    std::size_t m, k, n;
  };
  std::vector<Case> cases = {{1, 1, 1},    {6, 8, 8},    {7, 9, 13},
                             {48, 256, 64}, {50, 300, 70}, {65, 520, 49}};
  for (int i = 0; i < 6; ++i) {
    cases.push_back({shape_rng.uniform_index(96) + 1,
                     shape_rng.uniform_index(520) + 1,
                     shape_rng.uniform_index(96) + 1});
  }
  Rng rng(7);
  for (const Case& c : cases) {
    for (Variant v : kVariants) {
      const Tensor a = Tensor::randn(stored_a(v, c.m, c.k), rng);
      const Tensor b = Tensor::randn(stored_b(v, c.k, c.n), rng);
      for (std::size_t threads : {1u, 8u}) {
        ThreadPool::configure_global(threads);
        set_gemm_kernel(GemmKernel::kScalar);
        const Tensor scalar = run_variant(v, a, b);
        set_gemm_kernel(GemmKernel::kAvx2);
        const Tensor avx2 = run_variant(v, a, b);
        ASSERT_TRUE(bitwise_equal(scalar, avx2))
            << "[" << c.m << "," << c.k << "," << c.n << "] variant "
            << static_cast<int>(v) << " threads " << threads;
      }
    }
  }
}

// Same contract for the AVX-512 kernel: the 16-wide tile re-encodes the
// scalar accumulation chains lane for lane (each C element keeps its own
// chain; the wider panel only regroups independent chains), so it must
// agree with the scalar kernel to the last bit on every shape, layout,
// and thread count.
TEST(GemmDispatch, ScalarAndAvx512BitwiseIdenticalOverRandomizedShapes) {
  if (!gemm_kernel_supported(GemmKernel::kAvx512)) {
    GTEST_SKIP() << "AVX-512 not usable on this CPU; bit-identity is "
                    "covered by the forced-avx512 CI leg on capable hosts";
  }
  DispatchGuard guard;
  set_gemm_small_path_limit(0);  // exercise the packed kernels only
  Rng shape_rng(20260809);
  struct Case {
    std::size_t m, k, n;
  };
  // Fixed edge cases straddle the kNrWide = 16 panel: full tiles, a
  // single column, tails of 1 / 15 / 9, and multi-k-block depths.
  std::vector<Case> cases = {{1, 1, 1},     {6, 8, 16},    {7, 9, 17},
                             {13, 40, 31},  {48, 256, 64}, {50, 300, 73},
                             {65, 520, 41}};
  for (int i = 0; i < 6; ++i) {
    cases.push_back({shape_rng.uniform_index(96) + 1,
                     shape_rng.uniform_index(520) + 1,
                     shape_rng.uniform_index(96) + 1});
  }
  Rng rng(23);
  for (const Case& c : cases) {
    for (Variant v : kVariants) {
      const Tensor a = Tensor::randn(stored_a(v, c.m, c.k), rng);
      const Tensor b = Tensor::randn(stored_b(v, c.k, c.n), rng);
      for (std::size_t threads : {1u, 8u}) {
        ThreadPool::configure_global(threads);
        set_gemm_kernel(GemmKernel::kScalar);
        const Tensor scalar = run_variant(v, a, b);
        set_gemm_kernel(GemmKernel::kAvx512);
        const Tensor avx512 = run_variant(v, a, b);
        ASSERT_TRUE(bitwise_equal(scalar, avx512))
            << "[" << c.m << "," << c.k << "," << c.n << "] variant "
            << static_cast<int>(v) << " threads " << threads;
      }
    }
  }
}

// Edge tiles of the 16-wide kernel spill through a stack buffer and must
// add only live lanes into C: poison the last valid column/row with NaN
// and Inf at odd tail widths and demand bitwise agreement with scalar —
// a kernel that touched dead lanes or re-read poisoned C storage would
// smear non-finite values into neighbouring elements.
TEST(GemmDispatch, Avx512OddTailPanelsPropagateNanInfExactly) {
  if (!gemm_kernel_supported(GemmKernel::kAvx512)) {
    GTEST_SKIP() << "AVX-512 not usable on this CPU; bit-identity is "
                    "covered by the forced-avx512 CI leg on capable hosts";
  }
  DispatchGuard guard;
  set_gemm_small_path_limit(0);
  Rng rng(29);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // n chosen so the last panel holds 1, 15, 9, and 3 live columns.
  const std::size_t tails[] = {17, 31, 41, 67};
  for (const std::size_t n : tails) {
    const std::size_t m = 7, k = 33;
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    a(m - 1, k - 1) = nan;
    b(k - 1, n - 1) = inf;
    b(0, n - 1) = nan;
    set_gemm_kernel(GemmKernel::kScalar);
    const Tensor scalar = matmul(a, b);
    set_gemm_kernel(GemmKernel::kAvx512);
    const Tensor avx512 = matmul(a, b);
    ASSERT_TRUE(bitwise_equal(scalar, avx512)) << "n = " << n;
    // The poison must land where the scalar chains put it: the last
    // row/column see non-finite values, the untouched corner does not.
    EXPECT_TRUE(std::isnan(avx512(m - 1, n - 1)));
    EXPECT_TRUE(std::isnan(avx512(0, n - 1)));
    EXPECT_TRUE(std::isfinite(avx512(0, 0)));
  }
}

// The FMA kernel fuses multiply+add into one rounding, so it is allowed
// to diverge bitwise — but each result must still sit within float
// accumulation distance of the double-precision oracle (fused rounding
// is strictly more accurate per step, so the scalar kernel's tolerance
// bounds it too).
TEST(GemmDispatch, FmaKernelMatchesDoubleOracle) {
  if (!gemm_kernel_supported(GemmKernel::kFma)) {
    GTEST_SKIP() << "FMA not supported on this CPU";
  }
  DispatchGuard guard;
  set_gemm_small_path_limit(0);
  set_gemm_kernel(GemmKernel::kFma);
  struct Case {
    std::size_t m, k, n;
  };
  const Case cases[] = {
      {1, 1, 1}, {6, 8, 8}, {7, 9, 13}, {13, 31, 17}, {50, 300, 70},
      {65, 520, 49}};
  Rng rng(11);
  for (const Case& c : cases) {
    for (Variant v : kVariants) {
      const Tensor a = Tensor::randn(stored_a(v, c.m, c.k), rng);
      const Tensor b = Tensor::randn(stored_b(v, c.k, c.n), rng);
      const Tensor got = run_variant(v, a, b);
      const double tol =
          1e-4 + 2e-6 * static_cast<double>(c.k) *
                     std::sqrt(static_cast<double>(c.k));
      for (std::size_t i = 0; i < c.m; ++i) {
        for (std::size_t j = 0; j < c.n; ++j) {
          ASSERT_NEAR(got(i, j), oracle_entry(v, a, b, i, j, c.k), tol)
              << "[" << c.m << "," << c.k << "," << c.n << "] at (" << i
              << "," << j << ")";
        }
      }
    }
  }
}

constexpr GemmKernel kAllKernels[] = {GemmKernel::kScalar, GemmKernel::kAvx2,
                                      GemmKernel::kFma, GemmKernel::kAvx512};

/// Row counts the small-path tests sweep: every m up to 16, which covers
/// every remainder of the kernels' 2- and 4-row tiles, then the rows
/// around the 32-row training and lane batches and the gate's cap.
std::vector<std::size_t> small_path_rows() {
  std::vector<std::size_t> rows;
  for (std::size_t m = 1; m <= 16; ++m) rows.push_back(m);
  for (const std::size_t m : {24, 31, 32, 33, 47, 48, 63, 64}) {
    rows.push_back(m);
  }
  EXPECT_EQ(rows.back(), kGemmSmallPathMaxRows);
  return rows;
}

// The fast path skips packing but must replay the packed association
// exactly: force each route over the row counts above, column counts
// around both panel widths (8 and 16) and depths of one and more k
// blocks, in all three layouts, and demand bitwise equality under every
// supported kernel (fma included: its small kernel runs fused chains
// like the fused packed kernel).
TEST(GemmSmallPath, BitwiseIdenticalToPackedRoute) {
  DispatchGuard guard;
  const std::size_t ns[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 250, 256};
  const std::size_t ks[] = {1, 10, 64, 256, 257, 520};
  const std::vector<std::size_t> rows = small_path_rows();
  Rng rng(13);
  for (Variant v : kVariants) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        const Tensor b = Tensor::randn(stored_b(v, k, n), rng);
        for (const std::size_t m : rows) {
          ASSERT_LE(n, kGemmSmallPathMaxCols);
          const Tensor a = Tensor::randn(stored_a(v, m, k), rng);
          for (GemmKernel kernel : kAllKernels) {
            if (!gemm_kernel_supported(kernel)) continue;
            set_gemm_kernel(kernel);
            set_gemm_small_path_limit(0);
            const Tensor packed = run_variant(v, a, b);
            set_gemm_small_path_limit(
                std::numeric_limits<std::size_t>::max());
            ASSERT_TRUE(gemm_takes_small_path(m, n, k));
            const Tensor fast = run_variant(v, a, b);
            ASSERT_TRUE(bitwise_equal(packed, fast))
                << "[" << m << "," << k << "," << n << "] variant "
                << static_cast<int>(v) << " kernel "
                << gemm_kernel_name(kernel);
          }
        }
      }
    }
  }
}

// The scalar, 8-wide and 16-wide small kernels run the same chains, so
// they must agree to the last bit on every row-skinny shape and layout,
// at any thread count. fma's fused chains round differently, so it is
// left out (BitwiseIdenticalToPackedRoute pins it to its packed route).
TEST(GemmSmallPath, KernelsBitwiseIdenticalOverRandomizedShapes) {
  DispatchGuard guard;
  set_gemm_small_path_limit(std::numeric_limits<std::size_t>::max());
  Rng shape_rng(20261019);
  Rng rng(31);
  for (int i = 0; i < 24; ++i) {
    const std::size_t m = shape_rng.uniform_index(kGemmSmallPathMaxRows) + 1;
    const std::size_t n = shape_rng.uniform_index(kGemmSmallPathMaxCols) + 1;
    const std::size_t k = shape_rng.uniform_index(600) + 1;
    for (Variant v : kVariants) {
      const Tensor a = Tensor::randn(stored_a(v, m, k), rng);
      const Tensor b = Tensor::randn(stored_b(v, k, n), rng);
      for (std::size_t threads : {1u, 8u}) {
        ThreadPool::configure_global(threads);
        set_gemm_kernel(GemmKernel::kScalar);
        const Tensor scalar = run_variant(v, a, b);
        for (GemmKernel kernel : kAllKernels) {
          if (kernel == GemmKernel::kFma || !gemm_kernel_supported(kernel)) {
            continue;
          }
          set_gemm_kernel(kernel);
          ASSERT_TRUE(bitwise_equal(scalar, run_variant(v, a, b)))
              << "[" << m << "," << k << "," << n << "] variant "
              << static_cast<int>(v) << " kernel " << gemm_kernel_name(kernel)
              << " threads " << threads;
        }
      }
    }
  }
}

// 0 * Inf in real entries must stay NaN on the no-pack route, in both
// layouts of B, including in the last column of a masked tail: the
// poisoned column reads NaN / Inf exactly where the scalar chains put
// them, its neighbours stay finite, and nothing is written past C.
TEST(GemmSmallPath, NonFinitePropagatesWithoutZeroSkip) {
  DispatchGuard guard;
  set_gemm_small_path_limit(std::numeric_limits<std::size_t>::max());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sentinel = 12345.0f;
  for (GemmKernel kernel : kAllKernels) {
    if (!gemm_kernel_supported(kernel)) continue;
    set_gemm_kernel(kernel);
    for (const GemmTranspose trans_b :
         {GemmTranspose::kNone, GemmTranspose::kTranspose}) {
      for (const std::size_t n : {7u, 17u, 33u, 41u}) {
        const std::size_t m = 3, k = 5;
        std::vector<float> a(m * k, 1.0f);
        a[1 * k + 4] = 0.0f;  // row 1 meets the Inf with a zero
        a[2 * k + 4] = nan;   // row 2 meets every column with a NaN
        std::vector<float> b(k * n, 1.0f);
        const auto b_at = [&](std::size_t p, std::size_t j) -> float& {
          return trans_b == GemmTranspose::kNone ? b[p * n + j] : b[j * k + p];
        };
        b_at(4, n - 1) = inf;
        std::vector<float> c(m * n + 16, sentinel);
        std::fill(c.begin(), c.begin() + static_cast<long>(m * n), 0.0f);
        ASSERT_TRUE(gemm_takes_small_path(m, n, k));
        gemm(m, n, k, a.data(), GemmTranspose::kNone, b.data(), trans_b,
             c.data());
        const auto at = [&](std::size_t i, std::size_t j) {
          return c[i * n + j];
        };
        const std::string where = std::string(gemm_kernel_name(kernel)) +
                                  " n=" + std::to_string(n) + " trans_b=" +
                                  std::to_string(static_cast<int>(trans_b));
        EXPECT_TRUE(std::isinf(at(0, n - 1))) << where;
        EXPECT_TRUE(std::isnan(at(1, n - 1))) << where;
        EXPECT_FLOAT_EQ(at(0, 0), static_cast<float>(k)) << where;
        EXPECT_FLOAT_EQ(at(1, n - 2), static_cast<float>(k - 1)) << where;
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_TRUE(std::isnan(at(2, j))) << where << " j=" << j;
        }
        for (std::size_t t = m * n; t < c.size(); ++t) {
          ASSERT_EQ(c[t], sentinel) << where << " wrote past C at " << t;
        }
      }
    }
  }
}

TEST(GemmSmallPath, DisabledLimitForcesPackedRouteDeterministically) {
  DispatchGuard guard;
  // limit == 0 must route even a [1, k] x [k, n] product through the
  // packed path; the two routes agree bitwise, so this only checks the
  // knob actually changes nothing observable.
  Rng rng(17);
  const Tensor a = Tensor::randn({1, 40}, rng);
  const Tensor b = Tensor::randn({40, 6}, rng);
  set_gemm_small_path_limit(0);
  const Tensor packed = matmul(a, b);
  set_gemm_small_path_limit(kGemmSmallPathDefaultLimit);
  const Tensor fast = matmul(a, b);
  EXPECT_TRUE(bitwise_equal(packed, fast));
}

// Under the default gate every product of a 32-row training step or
// attack lane batch on a 64-wide layer takes the small path: the forward
// X*W, the input gradient G*W^T and the weight gradient X^T*G (m = the
// fan-in), for the digits 64-64-10 MLP's two layers.
TEST(GemmSmallPath, DefaultGateAdmitsTrainingStepProducts) {
  DispatchGuard guard;
  set_gemm_small_path_limit(kGemmSmallPathDefaultLimit);
  for (const std::size_t out : {64u, 10u}) {
    EXPECT_TRUE(gemm_takes_small_path(32, out, 64)) << "X*W, out " << out;
    EXPECT_TRUE(gemm_takes_small_path(32, 64, out)) << "G*W^T, out " << out;
    EXPECT_TRUE(gemm_takes_small_path(64, out, 32)) << "X^T*G, out " << out;
  }
  EXPECT_FALSE(gemm_takes_small_path(kGemmSmallPathMaxRows + 1, 64, 64));
}

}  // namespace
}  // namespace opad
