// Golden-trajectory suite: pins the exact bytes of three sweep plans.
//
// The trend gates in tools/bench_compare.py tolerate ~20% drift, which is
// far too loose to catch a performance change that silently alters the
// simulated trajectory (a different RNG draw, a reordered event, a byte
// more or less on the wire). These runs compare the merged sweep JSON —
// per-type message and byte counts, timing-failure tallies, the fault
// path's detection times, the telemetry digests — byte for byte against
// files committed under tests/golden/.
//
// The golden files are the output of
//   sweep_cli --plan protocol_overhead --seed 1 --seeds 2 --requests 60
//   sweep_cli --plan gray_failure --seed 1 --seeds 3 --requests 60
//   sweep_cli --plan gray_chaos --seed 1 --seeds 2 --requests 60
// A change that alters the simulated behaviour on purpose regenerates them
// with those commands and says why in its change notes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/plans.hpp"
#include "runner/sweep.hpp"

namespace aqueduct {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(AQUEDUCT_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string run_plan(const std::string& name, std::size_t seeds,
                     std::size_t requests) {
  const runner::Plan* plan = runner::find_plan(name);
  EXPECT_NE(plan, nullptr) << name;
  if (plan == nullptr) return {};
  const runner::SweepSpec spec =
      runner::make_spec(*plan, /*seed_begin=*/1, seeds, /*threads=*/1, requests);
  const runner::SweepResult result = runner::run_sweep(spec);
  EXPECT_TRUE(runner::passes(*plan, result)) << name;
  return runner::sweep_json(spec, result);
}

TEST(GoldenTrajectory, ProtocolOverheadSweepJsonIsByteIdentical) {
  EXPECT_EQ(run_plan("protocol_overhead", 2, 60),
            read_golden("protocol_overhead.json"));
}

TEST(GoldenTrajectory, GrayFailureSweepJsonIsByteIdentical) {
  EXPECT_EQ(run_plan("gray_failure", 3, 60), read_golden("gray_failure.json"));
}

// The fault path under the chaos transport: thousands of duplicated and
// reordered messages (so heartbeat ack rows also move backwards), NACK
// repair, and the telemetry digest, whose doubles go through json_number.
TEST(GoldenTrajectory, GrayChaosSweepJsonIsByteIdentical) {
  EXPECT_EQ(run_plan("gray_chaos", 2, 60), read_golden("gray_chaos.json"));
}

}  // namespace
}  // namespace aqueduct
