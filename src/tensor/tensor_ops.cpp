#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/gemm.h"
#include "util/parallel.h"

namespace opad {

namespace {
void check_rank2(const Tensor& t, const char* name) {
  OPAD_EXPECTS_MSG(t.rank() == 2, name << " must be rank 2, got "
                                       << shape_to_string(t.shape()));
}
}  // namespace

// All three matmul variants lower to the shared cache-blocked packed
// kernel in gemm.cpp; only the operand layout flags differ. The kernel
// has no zero-skip fast path: 0 * Inf and 0 * NaN must stay NaN so
// numerical blow-ups in one operand surface instead of being masked by
// exact zeros in the other.

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OPAD_EXPECTS_MSG(b.dim(0) == k, "matmul inner dims mismatch: "
                                      << shape_to_string(a.shape()) << " x "
                                      << shape_to_string(b.shape()));
  Tensor c({m, n});
  gemm(m, n, k, a.data().data(), GemmTranspose::kNone, b.data().data(),
       GemmTranspose::kNone, c.data().data());
  return c;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  OPAD_EXPECTS(b.dim(0) == k);
  Tensor c({m, n});
  gemm(m, n, k, a.data().data(), GemmTranspose::kTranspose, b.data().data(),
       GemmTranspose::kNone, c.data().data());
  return c;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OPAD_EXPECTS(b.dim(1) == k);
  Tensor c({m, n});
  gemm(m, n, k, a.data().data(), GemmTranspose::kNone, b.data().data(),
       GemmTranspose::kTranspose, c.data().data());
  return c;
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "a");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  const float* pa = a.data().data();
  float* pt = t.data().data();
  // Square tiling: a 32x32 tile (4 KB in, 4 KB out) turns the O(mn)
  // strided walk into cache-resident blocks — the conv backward path
  // transposes wide activation maps, where the naive column walk misses
  // on every store. Pure data movement, so chunking over row tiles is
  // trivially deterministic; the grain only keeps tiny transposes off
  // the pool.
  constexpr std::size_t kTile = 32;
  const std::size_t row_tiles = (m + kTile - 1) / kTile;
  const std::size_t grain = std::max<std::size_t>(
      1, 65536 / std::max<std::size_t>(kTile * n, 1));
  parallel_for(0, row_tiles, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t rt = lo; rt < hi; ++rt) {
      const std::size_t i0 = rt * kTile;
      const std::size_t i1 = std::min(i0 + kTile, m);
      for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
        const std::size_t j1 = std::min(j0 + kTile, n);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) pt[j * m + i] = pa[i * n + j];
        }
      }
    }
  });
  return t;
}

namespace {
/// Rows per chunk for the row-wise softmax family; rows are independent,
/// so chunking never changes a result.
std::size_t softmax_row_grain(std::size_t k) {
  constexpr std::size_t kMinChunkElements = 4096;
  return std::max<std::size_t>(1,
                               kMinChunkElements / std::max<std::size_t>(k, 1));
}
}  // namespace

Tensor softmax_rows(const Tensor& logits) {
  check_rank2(logits, "logits");
  Tensor out = logits;
  const std::size_t n = out.dim(0), k = out.dim(1);
  parallel_for(0, n, softmax_row_grain(k),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto row = out.row_span(i);
      const float m = *std::max_element(row.begin(), row.end());
      // Normaliser accumulates in double, matching log_softmax_rows: on
      // wide rows a float sum drifts enough to skew confidence-derived
      // seed weights relative to the log variant.
      double total = 0.0;
      for (float& v : row) {
        v = std::exp(v - m);
        total += static_cast<double>(v);
      }
      OPAD_ENSURES(total > 0.0);
      for (float& v : row) {
        v = static_cast<float>(static_cast<double>(v) / total);
      }
    }
  });
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  check_rank2(logits, "logits");
  Tensor out = logits;
  const std::size_t n = out.dim(0), k = out.dim(1);
  parallel_for(0, n, softmax_row_grain(k),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto row = out.row_span(i);
      const float m = *std::max_element(row.begin(), row.end());
      double total = 0.0;
      for (float v : row) total += std::exp(static_cast<double>(v) - m);
      const float log_z = m + static_cast<float>(std::log(total));
      for (float& v : row) v -= log_z;
    }
  });
  return out;
}

Tensor one_hot(std::span<const int> labels, std::size_t num_classes) {
  OPAD_EXPECTS(num_classes > 0);
  Tensor out({labels.size(), num_classes});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    OPAD_EXPECTS_MSG(labels[i] >= 0 &&
                         static_cast<std::size_t>(labels[i]) < num_classes,
                     "label " << labels[i] << " out of range for "
                              << num_classes << " classes");
    out(i, static_cast<std::size_t>(labels[i])) = 1.0f;
  }
  return out;
}

void add_to(std::span<float> dst, std::span<const float> src) {
  OPAD_EXPECTS(dst.size() == src.size());
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 4 <= dst.size(); i += 4) {
    _mm_storeu_ps(dst.data() + i, _mm_add_ps(_mm_loadu_ps(dst.data() + i),
                                             _mm_loadu_ps(src.data() + i)));
  }
#endif
  for (; i < dst.size(); ++i) dst[i] += src[i];
}

void add_bias_rows(Tensor& m, const Tensor& bias) {
  check_rank2(m, "m");
  OPAD_EXPECTS(bias.rank() == 1 && bias.dim(0) == m.dim(1));
  for (std::size_t i = 0; i < m.dim(0); ++i) add_to(m.row_span(i), bias.data());
}

Tensor sum_rows(const Tensor& m) {
  check_rank2(m, "m");
  Tensor out({m.dim(1)});
  // Row by row, so every column's sum still runs in row order.
  for (std::size_t i = 0; i < m.dim(0); ++i) add_to(out.data(), m.row_span(i));
  return out;
}

std::size_t conv_out_size(std::size_t in, std::size_t k, std::size_t stride,
                          std::size_t pad) {
  OPAD_EXPECTS(stride > 0);
  OPAD_EXPECTS_MSG(in + 2 * pad >= k, "kernel larger than padded input");
  return (in + 2 * pad - k) / stride + 1;
}

namespace {
/// Samples per chunk for the batched im2col/col2im loops: at least ~32k
/// moved elements per chunk, shape-dependent only.
std::size_t sample_grain(std::size_t elements_per_sample) {
  constexpr std::size_t kMinChunkElements = 32768;
  return std::max<std::size_t>(
      1, kMinChunkElements / std::max<std::size_t>(elements_per_sample, 1));
}
}  // namespace

Tensor im2col_batch(const Tensor& images, std::size_t c, std::size_t h,
                    std::size_t w, std::size_t kh, std::size_t kw,
                    std::size_t stride, std::size_t pad) {
  OPAD_EXPECTS_MSG(images.rank() == 2 && images.dim(1) == c * h * w,
                   "im2col_batch expects [batch, " << c * h * w << "], got "
                                                   << shape_to_string(
                                                          images.shape()));
  const std::size_t batch = images.dim(0);
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  const std::size_t spatial = oh * ow;
  Tensor cols({c * kh * kw, batch * spatial});
  const float* src = images.data().data();
  float* dst = cols.data().data();
  const std::size_t total_cols = batch * spatial;
  // Sample s owns the column slice [s*spatial, (s+1)*spatial) of every
  // row — disjoint writes, so the batch loop parallelises freely.
  parallel_for(0, batch, sample_grain(c * kh * kw * spatial),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const float* image = src + s * c * h * w;
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float* plane = image + ch * h * w;
        for (std::size_t ki = 0; ki < kh; ++ki) {
          for (std::size_t kj = 0; kj < kw; ++kj) {
            const std::size_t row = (ch * kh + ki) * kw + kj;
            float* out = dst + row * total_cols + s * spatial;
            for (std::size_t oi = 0; oi < oh; ++oi) {
              // Input row index as signed to handle padding.
              const std::ptrdiff_t ii =
                  static_cast<std::ptrdiff_t>(oi * stride + ki) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) {
                for (std::size_t oj = 0; oj < ow; ++oj) {
                  out[oi * ow + oj] = 0.0f;
                }
                continue;
              }
              const float* in_row = plane + static_cast<std::size_t>(ii) * w;
              for (std::size_t oj = 0; oj < ow; ++oj) {
                const std::ptrdiff_t jj =
                    static_cast<std::ptrdiff_t>(oj * stride + kj) -
                    static_cast<std::ptrdiff_t>(pad);
                out[oi * ow + oj] =
                    (jj >= 0 && jj < static_cast<std::ptrdiff_t>(w))
                        ? in_row[static_cast<std::size_t>(jj)]
                        : 0.0f;
              }
            }
          }
        }
      }
    }
  });
  return cols;
}

Tensor col2im_batch(const Tensor& cols, std::size_t batch, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t kh,
                    std::size_t kw, std::size_t stride, std::size_t pad) {
  OPAD_EXPECTS(cols.rank() == 2);
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  const std::size_t spatial = oh * ow;
  OPAD_EXPECTS(cols.dim(0) == c * kh * kw &&
               cols.dim(1) == batch * spatial);
  Tensor images({batch, c * h * w});
  const float* src = cols.data().data();
  float* dst = images.data().data();
  const std::size_t total_cols = batch * spatial;
  // Each sample scatters only into its own image row; the accumulation
  // order within a sample is the fixed (ch, ki, kj, oi, oj) walk.
  parallel_for(0, batch, sample_grain(c * kh * kw * spatial),
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      float* image = dst + s * c * h * w;
      for (std::size_t ch = 0; ch < c; ++ch) {
        float* plane = image + ch * h * w;
        for (std::size_t ki = 0; ki < kh; ++ki) {
          for (std::size_t kj = 0; kj < kw; ++kj) {
            const std::size_t row = (ch * kh + ki) * kw + kj;
            const float* in = src + row * total_cols + s * spatial;
            for (std::size_t oi = 0; oi < oh; ++oi) {
              const std::ptrdiff_t ii =
                  static_cast<std::ptrdiff_t>(oi * stride + ki) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) continue;
              float* out_row = plane + static_cast<std::size_t>(ii) * w;
              for (std::size_t oj = 0; oj < ow; ++oj) {
                const std::ptrdiff_t jj =
                    static_cast<std::ptrdiff_t>(oj * stride + kj) -
                    static_cast<std::ptrdiff_t>(pad);
                if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) continue;
                out_row[static_cast<std::size_t>(jj)] += in[oi * ow + oj];
              }
            }
          }
        }
      }
    }
  });
  return images;
}

Tensor im2col(const Tensor& image, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad) {
  OPAD_EXPECTS_MSG(image.rank() == 3, "im2col expects [c, h, w], got "
                                          << shape_to_string(image.shape()));
  const std::size_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  return im2col_batch(image.reshaped({1, c * h * w}), c, h, w, kh, kw,
                      stride, pad);
}

Tensor col2im(const Tensor& cols, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad) {
  Tensor images = col2im_batch(cols, 1, c, h, w, kh, kw, stride, pad);
  images.reshape({c, h, w});
  return images;
}

float l2_distance(const Tensor& a, const Tensor& b) {
  OPAD_EXPECTS(a.shape() == b.shape());
  double ss = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    const double d = static_cast<double>(da[i]) - db[i];
    ss += d * d;
  }
  return static_cast<float>(std::sqrt(ss));
}

float linf_distance(const Tensor& a, const Tensor& b) {
  OPAD_EXPECTS(a.shape() == b.shape());
  float m = 0.0f;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    m = std::max(m, std::fabs(da[i] - db[i]));
  }
  return m;
}

void project_linf_ball(Tensor& x, const Tensor& center, float eps, float lo,
                       float hi) {
  OPAD_EXPECTS(x.shape() == center.shape());
  OPAD_EXPECTS(eps >= 0.0f && lo <= hi);
  auto dx = x.data();
  auto dc = center.data();
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const float low = std::max(dc[i] - eps, lo);
    const float high = std::min(dc[i] + eps, hi);
    dx[i] = std::clamp(dx[i], low, high);
  }
}

}  // namespace opad
