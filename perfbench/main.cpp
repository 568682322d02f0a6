// perfbench — runs one workload of the OpAD benchmark.
//
//   perfbench --workload <fig1|campaign|stream|serve> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures with tracing off and reports the end-to-end
// metrics; --trace 1 runs the workload traced and reports the per-layer
// metrics it exercises. Layers are measured from outside the library:
// calls into each module's public functions are timed here, and the
// interfaces the library accepts are wrapped in timing decorators.
// Prints summary lines, a host stamp, and as its last line one JSON
// object {correct, attempted, failed, metrics}.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "tensor/gemm.h"
#include "util/cpu_features.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <fig1|campaign|stream|serve> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

bool parse_unsigned(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  if (text[0] == '-' || text[0] == '\0') return false;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  std::uint64_t seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      have_seed = parse_unsigned(value, options.seed);
      if (!have_seed) return usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_unsigned(value, seconds)) return usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_unsigned(value, trace)) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || seconds < 1 || seconds > 600 ||
      trace > 1) {
    return usage();
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  void (*run)(const RunOptions&, Report&) = nullptr;
  if (workload == "fig1") run = run_fig1;
  if (workload == "campaign") run = run_campaign;
  if (workload == "stream") run = run_stream;
  if (workload == "serve") run = run_serve;
  if (run == nullptr) return usage();

  // Create the worker pool before anything is timed: its first use is
  // process start-up cost, not set-up of the workload.
  opad::parallel_for(0, 64, 1, [](std::size_t, std::size_t) {});

  Report report;
  try {
    run(options, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << "stamp: cpu=" << opad::cpu_features_string()
            << " gemm=" << opad::gemm_kernel_name(opad::active_gemm_kernel())
            << " pool=" << opad::ThreadPool::global().thread_count()
            << " nproc=" << std::thread::hardware_concurrency()
            << " seed=" << options.seed << " workload=" << workload
            << " trace=" << trace << "\n";
  std::cout << report.json() << std::endl;
  return 0;
}
