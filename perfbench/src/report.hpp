// Run options and the result line every benchmark run ends with:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Small repetitions for the self-test.
  bool smoke = false;
  /// Where the traced run writes its spans and ledger (empty = nowhere).
  std::string out_dir;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A failure outside any repetition's own checks (it counts as one
  /// failed operation).
  void fail(std::string why) {
    failures_.push_back(std::move(why));
    ++failed_;
  }
  /// Adds one repetition's attempted/failed requests and its gate failures.
  void count(const RepResult& r) {
    attempted_ += r.expected;
    failed_ += r.failed_ops();
    for (const auto& v : r.violations) {
      failures_.push_back("seed " + std::to_string(r.seed) + ": " + v);
    }
  }
  double completed_share() const {
    return attempted_ == 0 ? 0.0
                           : 1.0 - static_cast<double>(std::min(failed_, attempted_)) /
                                       static_cast<double>(attempted_);
  }
  /// Prints the gate failures to stderr and the result line to stdout;
  /// returns the process exit status.
  int print() const {
    for (const auto& f : failures_) std::cerr << "CORRECTNESS: " << f << "\n";
    write_json(std::cout);
    std::cout << std::endl;
    return failures_.empty() ? 0 : 1;
  }
  void write_json(std::ostream& os) const {
    const bool correct = failures_.empty();
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    os << out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
