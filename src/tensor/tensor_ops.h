// Linear-algebra and shaping operations on Tensor that the neural-network
// and attack code build on: matmul, transpose, row-wise softmax, one-hot
// encoding, im2col/col2im for convolutions, and distance helpers.
#pragma once

#include "tensor/tensor.h"

namespace opad {

/// C = A * B for rank-2 tensors; A is [m, k], B is [k, n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B; A is [k, m], B is [k, n] -> [m, n] (avoids materialising
/// the transpose in backward passes).
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C = A * B^T; A is [m, k], B is [n, k] -> [m, n].
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Row-wise numerically-stable softmax of a [n, k] tensor.
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a [n, k] tensor.
Tensor log_softmax_rows(const Tensor& logits);

/// One-hot encodes labels into an [n, num_classes] tensor.
Tensor one_hot(std::span<const int> labels, std::size_t num_classes);

/// dst[i] += src[i] over two spans of equal length, four lanes at a time
/// on SSE2 hosts; each element takes the one rounding of the scalar loop,
/// so the result is bitwise the scalar one.
void add_to(std::span<float> dst, std::span<const float> src);

/// Adds row-vector `bias` ([k]) to every row of `m` ([n, k]) in place.
void add_bias_rows(Tensor& m, const Tensor& bias);

/// Sums the rows of an [n, k] tensor into a [k] tensor.
Tensor sum_rows(const Tensor& m);

/// im2col for NCHW input: expands [c, h, w] (single image) into a matrix of
/// shape [c*kh*kw, out_h*out_w] where each column is a flattened receptive
/// field. Zero padding `pad`, stride `stride`.
Tensor im2col(const Tensor& image, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// Batched im2col: expands a minibatch of flattened [c, h, w] images
/// (rows of `images`, shape [batch, c*h*w]) into one column matrix of
/// shape [c*kh*kw, batch*out_h*out_w], where sample s occupies the
/// column slice [s*out_h*out_w, (s+1)*out_h*out_w). Feeding the whole
/// minibatch to a single large-n GEMM is how Conv2D lowers its
/// forward/backward passes.
Tensor im2col_batch(const Tensor& images, std::size_t c, std::size_t h,
                    std::size_t w, std::size_t kh, std::size_t kw,
                    std::size_t stride, std::size_t pad);

/// Inverse scatter of im2col: accumulates columns back into an image of
/// shape [c, h, w].
Tensor col2im(const Tensor& cols, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// Inverse scatter of im2col_batch: accumulates the [c*kh*kw,
/// batch*out_h*out_w] column matrix back into flattened image rows of
/// shape [batch, c*h*w].
Tensor col2im_batch(const Tensor& cols, std::size_t batch, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t kh,
                    std::size_t kw, std::size_t stride, std::size_t pad);

/// Spatial output size for a convolution dimension.
std::size_t conv_out_size(std::size_t in, std::size_t k, std::size_t stride,
                          std::size_t pad);

/// L2 distance between two same-shape tensors.
float l2_distance(const Tensor& a, const Tensor& b);

/// L-infinity distance between two same-shape tensors.
float linf_distance(const Tensor& a, const Tensor& b);

/// Projects `x` into the L-inf ball of radius eps around `center`, then
/// clamps into [lo, hi] (the valid input box). Shapes must match.
void project_linf_ball(Tensor& x, const Tensor& center, float eps, float lo,
                       float hi);

}  // namespace opad
