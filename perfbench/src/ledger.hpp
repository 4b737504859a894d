// The traced run: per-layer ledger of one workload.
#pragma once

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_ledger(const Workload& w, const Options& opt);

}  // namespace perfbench
