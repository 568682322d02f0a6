#include "tensor/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <ostream>
#include <sstream>

#include "tensor/tensor_ops.h"

namespace opad {

std::size_t shape_size(const Shape& shape) {
  std::size_t n = shape.empty() ? 0 : 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_size(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  OPAD_EXPECTS_MSG(data_.size() == shape_size(shape_),
                   "value count " << data_.size() << " != shape size "
                                  << shape_size(shape_) << " for shape "
                                  << shape_to_string(shape_));
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float sd) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) {
    x = static_cast<float>(rng.normal(mean, sd));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  OPAD_EXPECTS(lo < hi);
  Tensor t(std::move(shape));
  for (float& x : t.data_) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  OPAD_EXPECTS_MSG(i < shape_.size(), "dim " << i << " out of range for "
                                             << shape_to_string(shape_));
  return shape_[i];
}

float& Tensor::at(std::size_t i) {
  OPAD_EXPECTS_MSG(i < data_.size(),
                   "flat index " << i << " out of range (size " << data_.size()
                                 << ")");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  OPAD_EXPECTS_MSG(i < data_.size(),
                   "flat index " << i << " out of range (size " << data_.size()
                                 << ")");
  return data_[i];
}

void Tensor::check_rank(std::size_t expected) const {
  OPAD_EXPECTS_MSG(rank() == expected, "rank " << rank() << " tensor "
                                               << shape_to_string(shape_)
                                               << ", expected rank "
                                               << expected);
}

float& Tensor::operator()(std::size_t i) {
  check_rank(1);
  return at(i);
}
float Tensor::operator()(std::size_t i) const {
  check_rank(1);
  return at(i);
}

float& Tensor::operator()(std::size_t i, std::size_t j) {
  check_rank(2);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}
float Tensor::operator()(std::size_t i, std::size_t j) const {
  check_rank(2);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

float& Tensor::operator()(std::size_t i, std::size_t j, std::size_t k) {
  check_rank(3);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}
float Tensor::operator()(std::size_t i, std::size_t j, std::size_t k) const {
  check_rank(3);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}

float& Tensor::operator()(std::size_t i, std::size_t j, std::size_t k,
                          std::size_t l) {
  check_rank(4);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1] && k < shape_[2] &&
               l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}
float Tensor::operator()(std::size_t i, std::size_t j, std::size_t k,
                         std::size_t l) const {
  check_rank(4);
  OPAD_EXPECTS(i < shape_[0] && j < shape_[1] && k < shape_[2] &&
               l < shape_[3]);
  return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor out = *this;
  out.reshape(std::move(new_shape));
  return out;
}

void Tensor::reshape(Shape new_shape) {
  OPAD_EXPECTS_MSG(shape_size(new_shape) == data_.size(),
                   "cannot reshape " << shape_to_string(shape_) << " to "
                                     << shape_to_string(new_shape));
  shape_ = std::move(new_shape);
}

Tensor Tensor::row(std::size_t r) const {
  auto view = row_span(r);
  return Tensor({view.size()}, std::vector<float>(view.begin(), view.end()));
}

std::span<float> Tensor::row_span(std::size_t r) {
  check_rank(2);
  OPAD_EXPECTS(r < shape_[0]);
  return std::span<float>(data_.data() + r * shape_[1], shape_[1]);
}

std::span<const float> Tensor::row_span(std::size_t r) const {
  check_rank(2);
  OPAD_EXPECTS(r < shape_[0]);
  return std::span<const float>(data_.data() + r * shape_[1], shape_[1]);
}

void Tensor::set_row(std::size_t r, std::span<const float> values) {
  auto dst = row_span(r);
  OPAD_EXPECTS(values.size() == dst.size());
  std::copy(values.begin(), values.end(), dst.begin());
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
  check_rank(2);
  OPAD_EXPECTS(begin <= end && end <= shape_[0]);
  const std::size_t cols = shape_[1];
  Tensor out({end - begin, cols});
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols),
            out.data_.begin());
  return out;
}

namespace {
void check_same_shape(const Tensor& a, const Tensor& b) {
  OPAD_EXPECTS_MSG(a.shape() == b.shape(),
                   "shape mismatch: " << shape_to_string(a.shape()) << " vs "
                                      << shape_to_string(b.shape()));
}
}  // namespace

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(*this, other);
  add_to(data_, other.data_);
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(*this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  check_same_shape(*this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float v) {
  for (float& x : data_) x += v;
  return *this;
}

Tensor& Tensor::operator*=(float v) {
  for (float& x : data_) x *= v;
  return *this;
}

void Tensor::fill(float v) {
  // +0 is all zero bytes; the element loop stays for every other value
  // (-0 included).
  if (std::bit_cast<std::uint32_t>(v) == 0 && !data_.empty()) {
    std::memset(data_.data(), 0, data_.size() * sizeof(float));
  } else {
    std::fill(data_.begin(), data_.end(), v);
  }
}

void Tensor::clamp(float lo, float hi) {
  OPAD_EXPECTS(lo <= hi);
  for (float& x : data_) x = std::clamp(x, lo, hi);
}

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::mean() const {
  OPAD_EXPECTS(!data_.empty());
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  OPAD_EXPECTS(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  OPAD_EXPECTS(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::l2_norm() const {
  double ss = 0.0;
  for (float x : data_) ss += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(ss));
}

float Tensor::linf_norm() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::size_t Tensor::argmax() const {
  OPAD_EXPECTS(!data_.empty());
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

bool Tensor::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](float x) { return std::isfinite(x); });
}

bool Tensor::operator==(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << shape_to_string(t.shape()) << " {";
  const std::size_t preview = std::min<std::size_t>(t.size(), 8);
  for (std::size_t i = 0; i < preview; ++i) {
    if (i) os << ", ";
    os << t.at(i);
  }
  if (t.size() > preview) os << ", ...";
  os << '}';
  return os;
}

}  // namespace opad
