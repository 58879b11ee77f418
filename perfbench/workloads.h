// The benchmark's three fleet workloads, built as ExperimentConfigs.
//
// Each workload is one closed-loop run of a real driver: the two single-DC
// workloads run ControlledExperiment, campus4_record runs CampusExperiment.
// The seed is the only input that varies between runs; run lengths and
// operating points are fixed here. README.md in this directory says why
// each workload was chosen.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string_view>

#include "src/core/experiment.h"

namespace perfbench {

struct Workload {
  ampere::ExperimentConfig config;
  bool campus = false;
  int64_t servers = 0;  // Across every DC of the run.
};

// Builds workload `name` with experiment seed `seed`. `short_horizon`
// shrinks the measured window to two simulated hours (the self-test).
// Returns false for an unknown name.
bool MakeWorkload(std::string_view name, uint64_t seed, bool short_horizon,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
