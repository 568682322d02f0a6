// The cache-blocked packed GEMM kernel behind the matmul family:
// double-precision oracle over randomized shapes (including tile-edge
// remainders and multi-k-block depths), NaN/Inf propagation through the
// packed path, cross-thread-count bit identity, and the scratch arena
// that feeds the kernel its workspaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/scratch.h"

namespace opad {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
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

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "matmul";
    case Variant::kTransposeA: return "matmul_transpose_a";
    default: return "matmul_transpose_b";
  }
}

/// Stored operand shapes for an effective [m, k] x [k, n] product.
Shape stored_a(Variant v, std::size_t m, std::size_t k) {
  return v == Variant::kTransposeA ? Shape{k, m} : Shape{m, k};
}
Shape stored_b(Variant v, std::size_t k, std::size_t n) {
  return v == Variant::kTransposeB ? Shape{n, k} : Shape{k, n};
}

float effective_a(Variant v, const Tensor& a, std::size_t i, std::size_t kk) {
  return v == Variant::kTransposeA ? a(kk, i) : a(i, kk);
}
float effective_b(Variant v, const Tensor& b, std::size_t kk, std::size_t j) {
  return v == Variant::kTransposeB ? b(j, kk) : b(kk, j);
}

Tensor run_variant(Variant v, const Tensor& a, const Tensor& b) {
  switch (v) {
    case Variant::kPlain: return matmul(a, b);
    case Variant::kTransposeA: return matmul_transpose_a(a, b);
    default: return matmul_transpose_b(a, b);
  }
}

TEST(GemmOracle, MatchesDoublePrecisionReferenceOverRandomShapes) {
  // m/n/k chosen to hit: single tiles, exact multiples of the 6x8
  // micro-tile, remainder edges in every dimension, multiple 48x256 C
  // tiles, and depths spanning one, two, and three kc = 256 blocks.
  struct Case {
    std::size_t m, k, n;
  };
  const Case cases[] = {
      {1, 1, 1},    {5, 3, 2},     {6, 8, 8},    {7, 9, 13},
      {13, 31, 17}, {48, 40, 64},  {50, 60, 70}, {100, 1, 100},
      {1, 64, 1},   {96, 300, 33}, {3, 520, 5},  {8, 16, 300},
      {65, 257, 49}};
  Rng rng(20240806);
  for (const Case& c : cases) {
    for (Variant v : kVariants) {
      const Tensor a = Tensor::randn(stored_a(v, c.m, c.k), rng);
      const Tensor b = Tensor::randn(stored_b(v, c.k, c.n), rng);
      const Tensor got = run_variant(v, a, b);
      ASSERT_EQ(got.shape(), (Shape{c.m, c.n}));
      // Generous float-accumulation tolerance that still catches any
      // packing/indexing bug (those produce O(1) errors).
      const double tol =
          1e-4 + 2e-6 * static_cast<double>(c.k) *
                     std::sqrt(static_cast<double>(c.k));
      for (std::size_t i = 0; i < c.m; ++i) {
        for (std::size_t j = 0; j < c.n; ++j) {
          double ref = 0.0;
          for (std::size_t kk = 0; kk < c.k; ++kk) {
            ref += static_cast<double>(effective_a(v, a, i, kk)) *
                   static_cast<double>(effective_b(v, b, kk, j));
          }
          ASSERT_NEAR(got(i, j), ref, tol)
              << variant_name(v) << " [" << c.m << "," << c.k << "," << c.n
              << "] at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(GemmOracle, NonFinitePropagatesThroughPackedPath) {
  // 0 * Inf must stay NaN even though the operands travel through the
  // packed panels; shapes span several tiles and two k blocks so the
  // affected entries cross panel boundaries.
  const std::size_t m = 70, k = 300, n = 70;
  const std::size_t i0 = 65, kk0 = 280, j0 = 66;
  for (Variant v : kVariants) {
    Tensor a(stored_a(v, m, k), 1.0f);
    Tensor b(stored_b(v, k, n), 1.0f);
    float& a_zero = v == Variant::kTransposeA ? a(kk0, i0) : a(i0, kk0);
    a_zero = 0.0f;
    float& b_inf = v == Variant::kTransposeB ? b(j0, kk0) : b(kk0, j0);
    b_inf = std::numeric_limits<float>::infinity();
    const Tensor c = run_variant(v, a, b);
    EXPECT_TRUE(std::isnan(c(i0, j0))) << variant_name(v);
    EXPECT_TRUE(std::isinf(c(i0 + 1, j0))) << variant_name(v);
    EXPECT_TRUE(std::isfinite(c(i0, j0 + 1))) << variant_name(v);
    EXPECT_FLOAT_EQ(c(i0, j0 + 1), static_cast<float>(k - 1))
        << variant_name(v);
  }
}

// Tail-panel audit: odd shapes whose edges land in the zero-padded
// region of the packed panels (m % 6, n % 8, k % 256 remainders all in
// play), with non-finite values planted in the tail rows/columns. A
// padding bug shows up either as a wrong finite value (0-padding leaked
// into the write-back) or as NaN bleeding into neighbours (padded lanes
// multiplied against a non-finite operand and not masked out). Runs
// under every supported kernel and both dispatch routes.
TEST(GemmOracle, OddShapeTailPanelsWithNonFiniteEdges) {
  struct Case {
    std::size_t m, k, n;
  };
  // 1x1, sub-tile, one-past-tile, and prime dims that are coprime to
  // every blocking constant.
  const Case cases[] = {{1, 1, 1},    {5, 3, 7},     {6, 4, 9},
                        {7, 11, 13},  {13, 17, 19},  {23, 29, 31},
                        {47, 53, 61}, {5, 259, 7}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const GemmKernel kernels[] = {GemmKernel::kScalar, GemmKernel::kAvx2,
                                GemmKernel::kFma};
  const GemmKernel previous_kernel = active_gemm_kernel();
  const std::size_t previous_limit = gemm_small_path_limit();
  Rng rng(40860);
  for (const Case& c : cases) {
    for (Variant v : kVariants) {
      Tensor a = Tensor::randn(stored_a(v, c.m, c.k), rng);
      Tensor b = Tensor::randn(stored_b(v, c.k, c.n), rng);
      // Poison the tail region: last A row gets an Inf and a 0 at the
      // last k slot, last B column gets a NaN at the last k slot. The
      // oracle below reproduces the resulting non-finite pattern.
      (v == Variant::kTransposeA ? a(c.k - 1, c.m - 1)
                                 : a(c.m - 1, c.k - 1)) = inf;
      if (c.k > 1) {
        (v == Variant::kTransposeA ? a(0, c.m - 1) : a(c.m - 1, 0)) = 0.0f;
      }
      (v == Variant::kTransposeB ? b(c.n - 1, c.k - 1)
                                 : b(c.k - 1, c.n - 1)) = nan;
      for (GemmKernel kernel : kernels) {
        if (!gemm_kernel_supported(kernel)) continue;
        set_gemm_kernel(kernel);
        for (std::size_t limit : {std::size_t{0},
                                  std::numeric_limits<std::size_t>::max()}) {
          set_gemm_small_path_limit(limit);
          const Tensor got = run_variant(v, a, b);
          ASSERT_EQ(got.shape(), (Shape{c.m, c.n}));
          const double tol =
              1e-4 + 2e-6 * static_cast<double>(c.k) *
                         std::sqrt(static_cast<double>(c.k));
          for (std::size_t i = 0; i < c.m; ++i) {
            for (std::size_t j = 0; j < c.n; ++j) {
              double ref = 0.0;
              for (std::size_t kk = 0; kk < c.k; ++kk) {
                ref += static_cast<double>(effective_a(v, a, i, kk)) *
                       static_cast<double>(effective_b(v, b, kk, j));
              }
              if (std::isnan(ref)) {
                ASSERT_TRUE(std::isnan(got(i, j)))
                    << variant_name(v) << " [" << c.m << "," << c.k << ","
                    << c.n << "] kernel " << gemm_kernel_name(kernel)
                    << " limit " << limit << " at (" << i << "," << j
                    << ")";
              } else if (std::isinf(ref)) {
                ASSERT_EQ(static_cast<double>(got(i, j)), ref)
                    << variant_name(v) << " at (" << i << "," << j << ")";
              } else {
                ASSERT_NEAR(got(i, j), ref, tol)
                    << variant_name(v) << " [" << c.m << "," << c.k << ","
                    << c.n << "] kernel " << gemm_kernel_name(kernel)
                    << " limit " << limit << " at (" << i << "," << j
                    << ")";
              }
            }
          }
        }
      }
    }
  }
  set_gemm_kernel(previous_kernel);
  set_gemm_small_path_limit(previous_limit);
}

TEST(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  Rng rng(77);
  struct GemmShape {
    std::size_t m, n, k;
  };
  // (100, 70, 300) has multiple C tiles in both dimensions plus two k
  // blocks. The next eight are the shapes the work gate was measured on;
  // the last two sit just below and just above its threshold. Whichever
  // side of the gate a shape falls, its result is the 1-thread result.
  const std::vector<GemmShape> shapes = {
      {100, 70, 300}, {64, 64, 32},   {64, 10, 32},  {96, 64, 64},
      {150, 64, 64},  {4096, 24, 2},  {1275, 64, 64}, {1275, 10, 64},
      {4096, 3, 24},  {156, 64, 64},  {162, 64, 64}};
  EXPECT_LT(gemm_work(156, 64, 64), kGemmInlineWork);
  EXPECT_GE(gemm_work(162, 64, 64), kGemmInlineWork);
  std::vector<Tensor> as, bs;
  for (const GemmShape& s : shapes) {
    for (Variant v : kVariants) {
      as.push_back(Tensor::randn(stored_a(v, s.m, s.k), rng));
      bs.push_back(Tensor::randn(stored_b(v, s.k, s.n), rng));
    }
  }
  const Tensor wide = Tensor::randn({90, 130}, rng);

  ThreadPool::configure_global(1);
  std::vector<Tensor> baseline;
  for (std::size_t i = 0; i < as.size(); ++i) {
    baseline.push_back(run_variant(kVariants[i % 3], as[i], bs[i]));
  }
  const Tensor wide_t = transpose(wide);

  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool::configure_global(threads);
    for (std::size_t i = 0; i < as.size(); ++i) {
      const GemmShape& s = shapes[i / 3];
      EXPECT_TRUE(bitwise_equal(baseline[i],
                                run_variant(kVariants[i % 3], as[i], bs[i])))
          << variant_name(kVariants[i % 3]) << " (" << s.m << ", " << s.n
          << ", " << s.k << ") threads=" << threads;
    }
    EXPECT_TRUE(bitwise_equal(wide_t, transpose(wide))) << threads;
  }
}

TEST(GemmDeterminism, BatchedConvForwardBackwardBitIdentical) {
  GlobalPoolGuard guard;
  Rng rng(31);
  Conv2D conv({2, 12, 12}, 5, 3, 1, 1, rng);
  const Tensor batch = Tensor::randn({9, 2 * 12 * 12}, rng);
  const Tensor grad =
      Tensor::randn({9, conv.output_geometry().features()}, rng);

  ThreadPool::configure_global(1);
  const Tensor out1 = conv.forward(batch, true);
  conv.zero_gradients();
  const Tensor gin1 = conv.backward(grad);
  const Tensor gw1 = *conv.gradients()[0];
  const Tensor gb1 = *conv.gradients()[1];

  for (std::size_t threads : {2u, 8u}) {
    ThreadPool::configure_global(threads);
    EXPECT_TRUE(bitwise_equal(out1, conv.forward(batch, true))) << threads;
    conv.zero_gradients();
    EXPECT_TRUE(bitwise_equal(gin1, conv.backward(grad))) << threads;
    EXPECT_TRUE(bitwise_equal(gw1, *conv.gradients()[0])) << threads;
    EXPECT_TRUE(bitwise_equal(gb1, *conv.gradients()[1])) << threads;
  }
}

TEST(GemmBatchedConv, ForwardEqualsPerSampleLowering) {
  // The batched im2col lowering must agree with composing the
  // single-image pieces by hand, sample by sample.
  Rng rng(55);
  const std::size_t c = 2, h = 6, w = 5, kh = 3, kw = 3, stride = 1, pad = 1;
  const std::size_t batch = 4;
  const Tensor images = Tensor::randn({batch, c * h * w}, rng);
  const Tensor cols =
      im2col_batch(images, c, h, w, kh, kw, stride, pad);
  const std::size_t spatial = conv_out_size(h, kh, stride, pad) *
                              conv_out_size(w, kw, stride, pad);
  ASSERT_EQ(cols.dim(1), batch * spatial);
  for (std::size_t s = 0; s < batch; ++s) {
    const Tensor single =
        im2col(images.row(s).reshaped({c, h, w}), kh, kw, stride, pad);
    for (std::size_t r = 0; r < cols.dim(0); ++r) {
      for (std::size_t p = 0; p < spatial; ++p) {
        ASSERT_EQ(cols(r, s * spatial + p), single(r, p))
            << "sample " << s << " row " << r << " col " << p;
      }
    }
  }
  // Round trip: col2im_batch of the batched columns matches per-sample
  // col2im of the slices.
  const Tensor back =
      col2im_batch(cols, batch, c, h, w, kh, kw, stride, pad);
  for (std::size_t s = 0; s < batch; ++s) {
    Tensor slice({cols.dim(0), spatial});
    for (std::size_t r = 0; r < cols.dim(0); ++r) {
      for (std::size_t p = 0; p < spatial; ++p) {
        slice(r, p) = cols(r, s * spatial + p);
      }
    }
    const Tensor single = col2im(slice, c, h, w, kh, kw, stride, pad);
    for (std::size_t i = 0; i < c * h * w; ++i) {
      ASSERT_EQ(back(s, i), single.at(i)) << "sample " << s;
    }
  }
}

TEST(ScratchArena, AlignedLeasesDoNotAliasAndAreReused) {
  auto& arena = ScratchArena::local();
  auto a = arena.lease_floats(100);
  ASSERT_NE(a.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                ScratchArena::kAlignment,
            0u);
  auto b = arena.lease_floats(50);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_NE(a.data(), b.data());
  a.data()[99] = 1.0f;
  b.data()[49] = 2.0f;
  EXPECT_EQ(a.data()[99], 1.0f);
  EXPECT_EQ(b.data()[49], 2.0f);

  float* first = a.data();
  a = ScratchArena::Lease();  // release the 100-float slot
  auto c = arena.lease_floats(80);
  EXPECT_EQ(c.data(), first);  // reused, not reallocated

  auto empty = arena.lease_floats(0);
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(ScratchArena, LeaseHonorsRequestedAlignment) {
  auto& arena = ScratchArena::local();
  // Over-aligned lease (AVX-512 packed panels ask for 64 bytes).
  auto wide = arena.lease_floats(100, 64);
  ASSERT_NE(wide.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide.data()) % 64, 0u);
  // A 64-byte slot satisfies a later 32-byte request (reuse), but a
  // 32-byte slot must never be handed to a 64-byte request.
  float* wide_ptr = wide.data();
  wide = ScratchArena::Lease();
  auto narrow = arena.lease_floats(100, 32);
  EXPECT_EQ(narrow.data(), wide_ptr);
  auto narrow2 = arena.lease_floats(64, 32);
  float* narrow2_ptr = narrow2.data();
  narrow2 = ScratchArena::Lease();
  auto wide2 = arena.lease_floats(64, 512);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide2.data()) % 512, 0u);
  if (reinterpret_cast<std::uintptr_t>(narrow2_ptr) % 512 != 0) {
    EXPECT_NE(wide2.data(), narrow2_ptr);
  }
  // Alignment must be a power of two.
  EXPECT_THROW(arena.lease_floats(16, 24), PreconditionError);
}

}  // namespace
}  // namespace opad
