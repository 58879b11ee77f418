// Scoped wall-clock trace spans for the observability layer.
//
// AMPERE_SPAN("controller.tick") starts a steady_clock timer that records
// its elapsed nanoseconds into the current MetricsRegistry (src/obs/metrics.h)
// when the enclosing scope exits. Per-name aggregates (count / total /
// min / max / p50 / p99 from log2 buckets) come back via
// MetricsRegistry::Snapshot().
//
// Cost: two steady_clock reads plus one shard-local map update.
//
// Spans measure wall time, so their values are inherently nondeterministic;
// the harness keeps them out of ResultRow::SameData and CSV output for that
// reason. Only the obs JSON section carries them.

#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <chrono>
#include <string_view>

#include "src/obs/metrics.h"

namespace ampere {
namespace obs {

// Times the scope between construction and destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : name_(name), start_(std::chrono::steady_clock::now()) {}

  ~ScopedSpan() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    SpanRecord(name_,
               static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                       .count()));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string_view name_;  // Caller keeps the name alive (string literals).
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace ampere

#define AMPERE_OBS_SPAN_CONCAT_INNER(a, b) a##b
#define AMPERE_OBS_SPAN_CONCAT(a, b) AMPERE_OBS_SPAN_CONCAT_INNER(a, b)
// Times the rest of the enclosing scope under `name` (a string literal).
#define AMPERE_SPAN(name)                                      \
  ::ampere::obs::ScopedSpan AMPERE_OBS_SPAN_CONCAT(ampere_span_, \
                                                   __LINE__)(name)

#endif  // SRC_OBS_SPAN_H_
