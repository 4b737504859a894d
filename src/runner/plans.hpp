// Named bench plans for the sweep engine.
//
// A Plan packages one experiment's per-unit body — build a Scenario from
// (seed, config point), run it, distill a SeedRecord — together with its
// config-point labels, pooled-estimate declarations and pass gate, so
// sweep_cli (the one driver for scenario experiments) and the chaos test
// suites fan the *same* run bodies across threads through
// runner::run_sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace aqueduct::runner {

struct Plan {
  std::string name;
  std::string description;
  /// Requests per client when the caller does not override.
  std::size_t default_requests = 0;
  /// Config-point labels; units are generated point-major over these.
  std::vector<std::string> points;
  std::vector<BinomialSpec> binomials;
  /// The per-unit body. Must be shared-nothing (see sweep.hpp).
  std::function<SeedRecord(const Unit&, std::size_t requests)> run;
  /// The experiment's exit condition over a finished sweep (safety
  /// counters pooled to 0, a fault that must have fired, ...). Empty = no
  /// condition beyond the one passes() always applies.
  std::function<bool(const SweepResult&)> pass;
};

/// True when no unit threw and `plan.pass` (if any) holds for `result`.
bool passes(const Plan& plan, const SweepResult& result);

/// All registered plans, in a stable order.
const std::vector<Plan>& plans();

/// nullptr when no plan has that name.
const Plan* find_plan(const std::string& name);

/// Builds the SweepSpec fanning `seed_count` consecutive seeds from
/// `seed_begin` across every config point of `plan` (point-major, so the
/// merged rows group by point). `requests` 0 keeps the plan default.
SweepSpec make_spec(const Plan& plan, std::uint64_t seed_begin,
                    std::size_t seed_count, std::size_t threads,
                    std::size_t requests = 0);

}  // namespace aqueduct::runner
