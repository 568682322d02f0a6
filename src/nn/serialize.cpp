#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "nn/model.h"
#include "util/error.h"

namespace opad {

namespace {

constexpr std::uint32_t kMagic = 0x4f504144;  // "OPAD"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw IoError("unexpected end of parameter stream");
  return value;
}

}  // namespace

void save_parameters(Sequential& model, std::ostream& os) {
  const auto params = model.parameters();
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const Tensor* p : params) {
    write_pod(os, static_cast<std::uint32_t>(p->rank()));
    for (std::size_t d = 0; d < p->rank(); ++d) {
      write_pod(os, static_cast<std::uint64_t>(p->dim(d)));
    }
    os.write(reinterpret_cast<const char*>(p->data().data()),
             static_cast<std::streamsize>(p->size() * sizeof(float)));
  }
  if (!os) throw IoError("failed writing parameter stream");
}

void load_parameters(Sequential& model, std::istream& is) {
  const auto magic = read_pod<std::uint32_t>(is);
  if (magic != kMagic) throw IoError("bad magic in parameter stream");
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) throw IoError("unsupported parameter version");
  const auto count = read_pod<std::uint64_t>(is);
  auto params = model.parameters();
  if (count != params.size()) {
    throw IoError("parameter count mismatch: stream has " +
                  std::to_string(count) + ", model has " +
                  std::to_string(params.size()));
  }
  // Parse every tensor into staging first and commit only once the whole
  // stream has checked out, so a failed load leaves the model untouched.
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (const Tensor* p : params) {
    const auto rank = read_pod<std::uint32_t>(is);
    if (rank != p->rank()) throw IoError("parameter rank mismatch");
    Shape shape(rank);
    for (std::uint32_t d = 0; d < rank; ++d) {
      shape[d] = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
    }
    if (shape != p->shape()) throw IoError("parameter shape mismatch");
    Tensor values(shape);
    is.read(reinterpret_cast<char*>(values.data().data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
    if (!is) throw IoError("truncated parameter payload");
    for (const float v : values.data()) {
      if (!std::isfinite(v)) {
        throw IoError("non-finite value in parameter payload");
      }
    }
    staged.push_back(std::move(values));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].data().begin(), staged[i].data().end(),
              params[i]->data().begin());
  }
}

void save_parameters_file(Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open " + path + " for writing");
  save_parameters(model, out);
}

void load_parameters_file(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path + " for reading");
  load_parameters(model, in);
}

std::vector<Tensor> snapshot_parameters(Sequential& model) {
  std::vector<Tensor> snapshot;
  for (const Tensor* p : model.parameters()) snapshot.push_back(*p);
  return snapshot;
}

void restore_parameters(Sequential& model,
                        const std::vector<Tensor>& snapshot) {
  auto params = model.parameters();
  OPAD_EXPECTS_MSG(params.size() == snapshot.size(),
                   "snapshot parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    OPAD_EXPECTS(params[i]->shape() == snapshot[i].shape());
    *params[i] = snapshot[i];
  }
}

}  // namespace opad
