// 2-D convolution over flattened NCHW rows, implemented with im2col.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace opad {

/// Geometry of an image carried as a flattened row.
struct ImageGeometry {
  std::size_t channels = 1;
  std::size_t height = 1;
  std::size_t width = 1;

  std::size_t features() const { return channels * height * width; }
};

/// Convolutional layer. Rows of the input batch are interpreted as
/// [channels, height, width] images; the output rows are
/// [out_channels, out_h, out_w] images.
class Conv2D : public Layer {
 public:
  Conv2D(ImageGeometry in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::size_t output_dim(std::size_t input_dim) const override;
  std::string name() const override;
  LayerPtr clone() const override { return std::make_unique<Conv2D>(*this); }

  ImageGeometry input_geometry() const { return in_; }
  ImageGeometry output_geometry() const { return out_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  ImageGeometry in_;
  ImageGeometry out_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  Tensor weight_;       // [out_c, in_c * k * k]
  Tensor bias_;         // [out_c]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_cols_;  // batched im2col matrix [in_c*k*k, batch*oh*ow]
  std::size_t cached_batch_ = 0;
};

/// Max pooling with square window and stride = window.
class MaxPool2D : public Layer {
 public:
  MaxPool2D(ImageGeometry in, std::size_t window);

  Tensor forward(const Tensor& input, bool training) override;
  std::size_t output_dim(std::size_t input_dim) const override;
  std::string name() const override;
  LayerPtr clone() const override {
    return std::make_unique<MaxPool2D>(*this);
  }

  ImageGeometry output_geometry() const { return out_; }

 private:
  Tensor backward_pass(const Tensor& grad_output, bool input_grad,
                       bool param_grads) override;

  ImageGeometry in_;
  ImageGeometry out_;
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::size_t cached_batch_ = 0;
};

}  // namespace opad
