// Tests for the parallel scenario runner (src/harness): the determinism
// contract (bit-identical ResultTable for any job count), submission-order
// assembly, failure isolation, the work-stealing pool's drain semantics,
// per-thread log capture, result emission formats, and the CLI plumbing.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/log.h"
#include "src/common/log_capture.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/harness/grid.h"
#include "src/harness/result_table.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"

namespace ampere {
namespace harness {
namespace {

// Lowers the global log level so AMPERE_LOG(kInfo) lines are emitted, and
// restores the previous level on scope exit.
class ScopedInfoLogLevel {
 public:
  ScopedInfoLogLevel() : previous_(GetLogLevel()) {
    SetLogLevel(LogLevel::kInfo);
  }
  ~ScopedInfoLogLevel() { SetLogLevel(previous_); }

 private:
  LogLevel previous_;
};

// A deterministic scenario set: each body derives all output from its seed
// through the simulator's own RNG, so any job count must produce the same
// metric bits.
std::vector<Scenario> SeededGrid(size_t n) {
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < n; ++i) {
    uint64_t seed = 1000 + i;
    char name[32];
    std::snprintf(name, sizeof(name), "run-%zu", i);
    scenarios.push_back(Scenario{
        name, seed, [seed](RunContext& context) {
          Rng rng(seed);
          double sum = 0.0;
          for (int k = 0; k < 1000; ++k) {
            sum += rng.NextDouble();
          }
          context.Metric("sum", sum);
          context.Metric("next", rng.NextDouble());
          context.NoteLine("detail for seed " + std::to_string(seed));
        }});
  }
  return scenarios;
}

TEST(ScenarioRunnerTest, SameDataAcrossJobCounts) {
  auto scenarios = SeededGrid(12);
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  ResultTable a = RunScenarios(scenarios, serial);
  ResultTable b = RunScenarios(scenarios, parallel);

  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(b.size(), 12u);
  EXPECT_TRUE(ResultTable::SameData(a, b));
  // The deterministic CSV rendering must be byte-identical too.
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
  // Bit-exact doubles, not just approximately equal.
  for (size_t i = 0; i < a.size(); ++i) {
    double va = a.row(i).Metric("sum");
    double vb = b.row(i).Metric("sum");
    EXPECT_EQ(0, std::memcmp(&va, &vb, sizeof(double))) << "row " << i;
  }
}

TEST(ScenarioRunnerTest, RowsAssembleInSubmissionOrder) {
  // Give early submissions the longest work so they finish last; rows must
  // still come back in submission order.
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "ordered-%zu", i);
    scenarios.push_back(Scenario{
        name, 100 + i, [i](RunContext& context) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds((8 - i) * 3));
          context.Metric("i", static_cast<double>(i));
        }});
  }
  RunnerOptions options;
  options.jobs = 4;
  ResultTable table = RunScenarios(scenarios, options);
  ASSERT_EQ(table.size(), 8u);
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.row(i).index, i);
    EXPECT_EQ(table.row(i).seed, 100 + i);
    EXPECT_EQ(table.row(i).Metric("i"), static_cast<double>(i));
  }
}

TEST(ScenarioRunnerTest, ThrowingScenarioFailsItsRowOnly) {
  std::vector<Scenario> scenarios = SeededGrid(4);
  scenarios.insert(scenarios.begin() + 2,
                   Scenario{"boom", 7, [](RunContext&) {
                              throw std::runtime_error("kaboom");
                            }});
  RunnerOptions options;
  options.jobs = 2;
  ResultTable table = RunScenarios(scenarios, options);
  ASSERT_EQ(table.size(), 5u);
  EXPECT_FALSE(table.row(2).ok);
  EXPECT_NE(table.row(2).error.find("kaboom"), std::string::npos);
  for (size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(table.row(i).ok) << "row " << i;
  }
}

TEST(ScenarioRunnerTest, WorkersAreCappedAtTheScenarioCount) {
  // A 2-run grid starts at most 2 workers whatever --jobs asked for, and
  // the table reports the capped count.
  RunnerOptions options;
  options.jobs = 8;
  ResultTable table = RunScenarios(SeededGrid(2), options);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.jobs(), 2);
  EXPECT_EQ(RunScenarios(std::vector<Scenario>{}, options).jobs(), 1);
  options.jobs = 1;
  EXPECT_EQ(RunScenarios(SeededGrid(2), options).jobs(), 1);
}

TEST(ScenarioRunnerTest, CapturesLogsPerRun) {
  ScopedInfoLogLevel log_level;
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 4; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "logger-%d", i);
    scenarios.push_back(Scenario{
        name, static_cast<uint64_t>(i), [i](RunContext& context) {
          AMPERE_LOG(kInfo) << "hello from run " << i;
          context.Metric("i", i);
        }});
  }
  RunnerOptions options;
  options.jobs = 2;
  options.capture_logs = true;
  ResultTable table = RunScenarios(scenarios, options);
  for (int i = 0; i < 4; ++i) {
    const std::string& log = table.row(static_cast<size_t>(i)).log;
    EXPECT_NE(log.find("hello from run " + std::to_string(i)),
              std::string::npos)
        << "row " << i << " log: " << log;
    // No cross-talk: other runs' lines must not appear.
    for (int j = 0; j < 4; ++j) {
      if (j != i) {
        EXPECT_EQ(log.find("hello from run " + std::to_string(j)),
                  std::string::npos);
      }
    }
  }
}

TEST(ScenarioRunnerTest, BuiltinSmokeGridIsDeterministic) {
  RegisterBuiltinScenarios();
  ASSERT_TRUE(ScenarioRegistry::Global().Contains("fleet-smoke"));
  auto scenarios = ScenarioRegistry::Global().Make("fleet-smoke");
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  ResultTable a = RunScenarios(scenarios, serial);
  // Scenario bodies are std::functions — rebuild the set so each table run
  // uses fresh closures (guards against accidental state in factories).
  auto scenarios2 = ScenarioRegistry::Global().Make("fleet-smoke");
  ResultTable b = RunScenarios(scenarios2, parallel);
  EXPECT_TRUE(ResultTable::SameData(a, b));
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
  for (const ResultRow& row : a.rows()) {
    EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
  }
}

TEST(GridTest, TypedResultsMatchSubmissionOrder) {
  std::vector<int> items{5, 3, 8, 1};
  auto grid = RunGridOver(
      items,
      [](int item, size_t i) {
        return GridMeta{"item-" + std::to_string(item), 50 + i};
      },
      [](int item, RunContext& context) {
        context.Metric("doubled", 2.0 * item);
        return item * 10;
      },
      RunnerOptions{.jobs = 2});
  ASSERT_EQ(grid.values.size(), 4u);
  EXPECT_EQ(grid.values[0], 50);
  EXPECT_EQ(grid.values[1], 30);
  EXPECT_EQ(grid.values[2], 80);
  EXPECT_EQ(grid.values[3], 10);
  EXPECT_EQ(grid.table.row(2).Metric("doubled"), 16.0);
  EXPECT_EQ(grid.table.row(2).seed, 52u);
}

TEST(ThreadPoolTest, DrainsQueuedWorkBeforeShutdown) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must wait for every queued task, not just running ones.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, WaitBlocksUntilAllSubmittedWorkFinishes) {
  std::atomic<int> done{0};
  ThreadPool pool(3);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 32);
  // The pool stays usable after Wait().
  pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.Wait();
  EXPECT_EQ(done.load(), 33);
}

TEST(ThreadPoolTest, NestedSubmissionFromWorkers) {
  // Workers submitting follow-up work (as parallel grids with per-item
  // fan-out would) must not deadlock Wait().
  std::atomic<int> done{0};
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &done] {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(ScopedLogCaptureTest, CapturesAndRestores) {
  ScopedInfoLogLevel log_level;
  std::string inner_text;
  {
    ScopedLogCapture outer;
    AMPERE_LOG(kInfo) << "outer-line";
    {
      ScopedLogCapture inner;
      AMPERE_LOG(kInfo) << "inner-line";
      inner_text = inner.output();
    }
    AMPERE_LOG(kInfo) << "outer-again";
    EXPECT_NE(outer.output().find("outer-line"), std::string::npos);
    EXPECT_NE(outer.output().find("outer-again"), std::string::npos);
    EXPECT_EQ(outer.output().find("inner-line"), std::string::npos);
  }
  EXPECT_NE(inner_text.find("inner-line"), std::string::npos);
  EXPECT_EQ(inner_text.find("outer"), std::string::npos);
}

TEST(ResultTableTest, CsvOmitsTimingAndJsonCarriesIt) {
  ResultTable table;
  table.Resize(1);
  table.row(0).scenario = "alpha";
  table.row(0).seed = 42;
  table.row(0).wall_ms = 123.5;
  table.row(0).metrics.push_back(MetricValue{"m", 0.1});
  table.set_jobs(3);
  table.set_total_wall_ms(456.0);

  std::string csv = table.ToCsv();
  EXPECT_EQ(csv.find("wall"), std::string::npos);
  EXPECT_NE(csv.find("alpha"), std::string::npos);
  EXPECT_NE(csv.find("m"), std::string::npos);

  std::string json = table.ToJson();
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 3"), std::string::npos);
}

TEST(ResultTableTest, SameDataIgnoresTimingButNotMetrics) {
  ResultTable a;
  a.Resize(1);
  a.row(0).scenario = "s";
  a.row(0).metrics.push_back(MetricValue{"m", 1.0});
  a.row(0).wall_ms = 10.0;
  ResultTable b = a;
  b.row(0).wall_ms = 99.0;
  b.set_jobs(8);
  EXPECT_TRUE(ResultTable::SameData(a, b));
  b.row(0).metrics[0].value = 1.0000001;
  EXPECT_FALSE(ResultTable::SameData(a, b));
}

TEST(HarnessArgsTest, ParsesFlagsAndPositionals) {
  const char* argv_c[] = {"prog",      "--jobs=5", "pos1", "--csv",
                          "out.csv",   "--json=out.json", "--no-notes",
                          "pos2"};
  std::vector<char*> argv;
  for (const char* a : argv_c) {
    argv.push_back(const_cast<char*>(a));
  }
  HarnessArgs args =
      ParseHarnessArgs(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.runner.jobs, 5);
  EXPECT_EQ(args.csv_path, "out.csv");
  EXPECT_EQ(args.json_path, "out.json");
  EXPECT_FALSE(args.print_notes);
  ASSERT_EQ(args.positional.size(), 2u);
  EXPECT_EQ(args.positional[0], "pos1");
  EXPECT_EQ(args.positional[1], "pos2");
}

TEST(HarnessArgsTest, ParsesLogLevelAndObsFlags) {
  LogLevel previous = GetLogLevel();
  const char* argv_c[] = {"prog", "--log-level=debug", "--obs"};
  std::vector<char*> argv;
  for (const char* a : argv_c) {
    argv.push_back(const_cast<char*>(a));
  }
  HarnessArgs args =
      ParseHarnessArgs(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  EXPECT_TRUE(args.runner.capture_obs);
  EXPECT_TRUE(args.positional.empty());
  SetLogLevel(previous);
}

TEST(LogLevelTest, ParseAcceptsNamesAndAliases) {
  LogLevel level;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("e", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
}

TEST(LogLevelTest, EnvironmentVariableAppliesAndFlagWins) {
  LogLevel previous = GetLogLevel();
  ASSERT_EQ(setenv("AMPERE_LOG_LEVEL", "info", 1), 0);
  const char* argv_env[] = {"prog"};
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(argv_env[0]));
  ParseHarnessArgs(1, argv.data());
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);

  // A --log-level flag overrides the environment, like --jobs/AMPERE_JOBS.
  const char* argv_both[] = {"prog", "--log-level=error"};
  std::vector<char*> argv2;
  for (const char* a : argv_both) {
    argv2.push_back(const_cast<char*>(a));
  }
  ParseHarnessArgs(2, argv2.data());
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  unsetenv("AMPERE_LOG_LEVEL");
  SetLogLevel(previous);
}

TEST(ResolveJobsTest, PositiveWinsOverEnvironment) {
  EXPECT_EQ(ResolveJobs(7), 7);
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-3), 1);
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb\r"), "a\\tb\\r");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ArtifactPathTest, SuffixesRunIndexOnlyUnderMultipleRuns) {
  // A single run keeps the user's path verbatim; a multi-run grid splices
  // _runN before the extension so parallel scenarios never clobber.
  EXPECT_EQ(ArtifactPathForRun("out/trace.json", 0, 1), "out/trace.json");
  EXPECT_EQ(ArtifactPathForRun("out/trace.json", 2, 4), "out/trace_run2.json");
  EXPECT_EQ(ArtifactPathForRun("trace", 1, 3), "trace_run1");
  // A dot inside a directory name is not an extension.
  EXPECT_EQ(ArtifactPathForRun("out.d/trace", 1, 3), "out.d/trace_run1");
}

TEST(ArtifactRowTest, ArtifactsReachJsonButNotCsvOrSameData) {
  Scenario scenarios[] = {
      {"with-artifact", 1,
       [](RunContext& context) { context.Artifact("/tmp/a.trace.json"); }},
      {"without", 2, [](RunContext&) {}},
  };
  RunnerOptions options;
  options.jobs = 1;
  ResultTable table = RunScenarios(scenarios, options);

  const std::string json = table.ToJson();
  EXPECT_NE(json.find("\"artifacts\": [\"/tmp/a.trace.json\"]"),
            std::string::npos);
  EXPECT_EQ(table.ToCsv().find("a.trace.json"), std::string::npos);

  // Artifact paths are run metadata (host-dependent), so SameData ignores
  // them like timing.
  ResultTable other = RunScenarios(scenarios, options);
  other.row(0).artifacts.clear();
  EXPECT_TRUE(ResultTable::SameData(table, other));
}

}  // namespace
}  // namespace harness
}  // namespace ampere
