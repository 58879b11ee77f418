// Typed grid execution on top of the scenario runner.
//
// Most benches sweep a typed parameter list (RunSpec, double, enum, ...)
// and need the typed per-run result back for shape checks, alongside the
// structured metric rows for emission. RunGrid bridges the two: it wraps
// each item in a Scenario whose body calls the user function and stores the
// typed result into a presized slot (one writer per slot — no locking),
// then returns both the assembled ResultTable and the typed results in
// submission order.

#ifndef SRC_HARNESS_GRID_H_
#define SRC_HARNESS_GRID_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/harness/runner.h"
#include "src/harness/scenario.h"

namespace ampere {
namespace harness {

// Scenario metadata derived from a grid item.
struct GridMeta {
  std::string name;
  uint64_t seed = 0;
};

template <typename R>
struct GridResult {
  ResultTable table;        // Submission-order rows (metrics, notes, timing).
  std::vector<R> values;    // Typed results, submission order.
};

// `items` is anything with data()/size() (vector, array, span).
// `meta(item, index)` -> GridMeta; `fn(item, RunContext&)` -> R.
// R must be default-constructible and move-assignable.
template <typename Items, typename MetaFn, typename Fn>
auto RunGrid(const Items& items, MetaFn&& meta, Fn&& fn,
             const RunnerOptions& options = {}) {
  using Item = std::remove_cvref_t<decltype(*items.data())>;
  using R = std::invoke_result_t<Fn&, const Item&, RunContext&>;
  static_assert(!std::is_void_v<R>,
                "grid functions return their typed result");
  static_assert(std::is_default_constructible_v<R>,
                "grid results are slot-assigned; wrap non-default-"
                "constructible types in an aggregate");

  GridResult<R> out;
  out.values.resize(items.size());
  std::vector<Scenario> scenarios;
  scenarios.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const Item* item = items.data() + i;
    GridMeta m = meta(*item, i);
    R* slot = &out.values[i];
    scenarios.push_back(Scenario{
        std::move(m.name), m.seed,
        [item, slot, &fn](RunContext& context) {
          *slot = fn(*item, context);
        }});
  }
  out.table = RunScenarios(scenarios, options);
  return out;
}

}  // namespace harness
}  // namespace ampere

#endif  // SRC_HARNESS_GRID_H_
