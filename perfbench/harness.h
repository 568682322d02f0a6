// Measurement plumbing shared by the workloads: clocks, order
// statistics, and the per-run report with its JSON result line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile q in (0, 1] of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
/// Middle value (mean of the two middle values for an even count).
double median(std::vector<double> values);

/// Highest percentile a tail is reported at. Above it, latencies on a
/// shared 4-core host are set by scheduler stalls of 10-20 ms that hit
/// about 1% of requests in some runs and none in others, not by the
/// program.
inline constexpr double kTailCap = 0.95;

/// A timing as the benchmark reports it: the median plus the highest
/// percentile that still has at least ten samples beyond it (capped at
/// kTailCap; the median itself below 21 samples).
struct Timing {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
};
Timing summarize(const std::vector<double>& values);

/// Process peak resident set size so far, in MB.
double peak_rss_mb();

/// Thread-safe call counter and busy-time accumulator for one layer
/// boundary, shared by a timing decorator and its thread replicas.
struct LayerClock {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  void add(Clock::time_point start) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    calls.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(static_cast<std::uint64_t>(ns.count()),
                      std::memory_order_relaxed);
  }
  double busy_s() const { return static_cast<double>(busy_ns.load()) * 1e-9; }
  void reset() {
    calls.store(0);
    busy_ns.store(0);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metrics of one run plus the tally of checked outputs.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// Records one checked unit of work; a false `ok` marks the run
  /// incorrect and counts the unit as failed.
  void check(bool ok, const std::string& what);
  /// A unit whose output was correct but missed a service limit (a late
  /// response): it lowers ok_frac without failing the run.
  void miss() { ++missed_; }

  double ok_frac() const;
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t missed_ = 0;
};

/// The end-to-end metrics of a batch workload: setup_s and wall_s are
/// medians over the set-up and measured repetitions, p50_us and tail_us
/// summarise `result_us`, the latencies of the individual results the
/// workload delivers.
void report_batch_end_to_end(Report& report, const std::vector<double>& setups,
                             const std::vector<double>& walls,
                             const std::vector<double>& result_us);

/// The attack and nn counts of a traced run: seeds (or test cases) tried,
/// AEs (or failures) found, the operational ones among them, and the
/// model queries spent.
void report_attack_counts(Report& report, std::size_t seeds, std::size_t aes,
                          std::size_t op_aes, std::uint64_t queries);

/// Calls `rep()` until `seconds` have passed and at least `min_reps`
/// repetitions ran; `rep` returns the seconds of its own timed section.
template <typename Fn>
std::vector<double> repeat_for(double seconds, std::size_t min_reps,
                               Fn&& rep) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  while (walls.size() < min_reps ||
         seconds_between(start, Clock::now()) < seconds) {
    walls.push_back(rep());
  }
  return walls;
}

/// Times each of `calls` invocations of `fn`, in seconds.
template <typename Fn>
std::vector<double> time_each(std::size_t calls, Fn&& fn) {
  std::vector<double> out;
  out.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

/// Set-up repetitions per run. setup_s is their median, so the first,
/// cold repetition (page faults, heap growth) never decides it.
inline constexpr std::size_t kSetupReps = 5;

/// A traced run repeats its traced and reference measurements at least
/// kTraceReps times and until `seconds` have passed since `start`.
inline constexpr std::size_t kTraceReps = 3;
inline bool more_trace_reps(std::size_t done, Clock::time_point start,
                            double seconds) {
  return done < kTraceReps || seconds_between(start, Clock::now()) < seconds;
}

}  // namespace perfbench
