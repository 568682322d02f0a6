#include "probes.h"

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {

using namespace opad;

namespace {

struct Batch {
  Tensor rows;
  std::vector<int> labels;
};

Batch batch_of(const Dataset& pool, std::size_t n) {
  Batch b{Tensor({n, pool.dim()}), std::vector<int>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    b.rows.set_row(i, pool.row(i % pool.size()));
    b.labels[i] = pool.label(i % pool.size());
  }
  return b;
}

/// Enough calls for a stable median without dwelling on big batches.
std::size_t calls_for(std::size_t rows) {
  return std::clamp<std::size_t>(64'000 / rows, 32, 2000);
}

}  // namespace

void probe_nn(const Classifier& model, const Dataset& pool, Report& report) {
  Classifier replica = model.clone();
  const std::pair<const char*, std::size_t> predict_shapes[] = {
      {"b1", 1}, {"b32", 32}, {"bchunk", kChunkRows}};
  for (const auto& [label, rows] : predict_shapes) {
    const Batch b = batch_of(pool, rows);
    std::vector<int> out(rows);
    const auto calls = time_each(calls_for(rows), [&] {
      replica.predict_batch(b.rows, out);
    });
    report.set(std::string("nn.predict_us.") + label, median(calls) * 1e6,
               "us");
  }
  const std::pair<const char*, std::size_t> gradient_shapes[] = {{"b1", 1},
                                                                 {"b32", 32}};
  for (const auto& [label, rows] : gradient_shapes) {
    const Batch b = batch_of(pool, rows);
    const auto calls = time_each(calls_for(rows), [&] {
      replica.input_gradient_batch(b.rows, b.labels);
    });
    report.set(std::string("nn.input_grad_us.") + label, median(calls) * 1e6,
               "us");
  }
}

}  // namespace perfbench
