// scenario_sweep — run a built-in scenario set in parallel.
//
//   scenario_sweep --list
//   scenario_sweep experiment-smoke [--jobs=N] [--csv=out.csv] [--json=out.json]
//
// Front end for the harness layer (src/harness): picks a scenario set from
// harness::BuiltinScenarioSets(), runs it on worker threads
// (hardware_concurrency by default; --jobs or AMPERE_JOBS override), and
// emits it through harness::EmitResults like every grid bench. CSV output
// is bit-stable across job counts; JSON additionally carries per-run
// wall-clock timing and captured logs.

#include <algorithm>
#include <cstdio>

#include "src/harness/runner.h"
#include "src/harness/scenario.h"

int main(int argc, char** argv) {
  using namespace ampere;  // NOLINT
  harness::HarnessArgs args = harness::ParseHarnessArgs(argc, argv);
  const std::span<const harness::ScenarioSet> sets =
      harness::BuiltinScenarioSets();

  const bool list_only =
      std::find(args.positional.begin(), args.positional.end(), "--list") !=
      args.positional.end();
  if (list_only || args.positional.empty()) {
    std::printf("built-in scenario sets:\n");
    for (const harness::ScenarioSet& set : sets) {
      std::printf("  %-20.*s %.*s\n", static_cast<int>(set.name.size()),
                  set.name.data(), static_cast<int>(set.description.size()),
                  set.description.data());
    }
    if (args.positional.empty()) {
      std::printf("\nusage: scenario_sweep <set> [--jobs=N] [--csv=PATH] "
                  "[--json=PATH]\n");
    }
    return list_only ? 0 : 2;
  }

  const std::string& set_name = args.positional.front();
  const auto set = std::find_if(
      sets.begin(), sets.end(),
      [&](const harness::ScenarioSet& s) { return s.name == set_name; });
  if (set == sets.end()) {
    std::fprintf(stderr, "unknown scenario set '%s' (try --list)\n",
                 set_name.c_str());
    return 2;
  }

  std::printf("%s\n\n", set_name.c_str());
  const std::vector<harness::Scenario> scenarios = set->make();
  const harness::ResultTable table =
      harness::RunScenarios(scenarios, args.runner);
  return harness::EmitResults(table, args) ? 0 : 1;
}
