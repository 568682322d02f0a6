#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/resource.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Timing summarize(const std::vector<double>& values) {
  Timing t;
  t.samples = values.size();
  t.p50 = median(values);
  t.tail = t.p50;
  if (values.size() >= 21) {
    const double n = static_cast<double>(values.size());
    t.tail_q = std::min(kTailCap, (n - 10.0) / n);
    t.tail = quantile(values, t.tail_q);
  }
  return t;
}

double peak_rss_mb() {
  return static_cast<double>(opad::peak_rss_kb()) / 1024.0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = -1.0;
  }
  for (auto& metric : metrics_) {
    if (metric.first == name) {
      metric.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double Report::ok_frac() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - failed_ - missed_) /
         static_cast<double>(attempted_);
}

void report_batch_end_to_end(Report& report, const std::vector<double>& setups,
                             const std::vector<double>& walls,
                             const std::vector<double>& result_us) {
  const Timing results = summarize(result_us);
  std::cout << "runs " << walls.size() << ", median wall " << median(walls)
            << " s; results n=" << results.samples << " p50 " << results.p50
            << " us, p" << results.tail_q * 100 << " " << results.tail
            << " us; setups " << setups.size() << "\n";
  report.set("setup_s", median(setups), "s");
  report.set("wall_s", median(walls), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("ok_frac", report.ok_frac(), "fraction");
  report.set("p50_us", results.p50, "us");
  report.set("tail_us", results.tail, "us");
}

void report_attack_counts(Report& report, std::size_t seeds, std::size_t aes,
                          std::size_t op_aes, std::uint64_t queries) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  report.set("attack.seeds", static_cast<double>(seeds), "count");
  report.set("attack.aes", static_cast<double>(aes), "count");
  report.set("attack.op_aes", static_cast<double>(op_aes), "count");
  report.set("attack.ae_per_seed", ratio(aes, seeds), "fraction");
  report.set("attack.op_share", ratio(op_aes, aes), "fraction");
  report.set("attack.op_aes_per_kquery",
             ratio(1000.0 * static_cast<double>(op_aes),
                   static_cast<double>(queries)),
             "1/kquery");
  report.set("nn.queries", static_cast<double>(queries), "count");
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": "
      << (attempted_ > 0 && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value.first);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
