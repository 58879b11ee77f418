// Scoped wall-clock trace spans for the observability layer.
//
// AMPERE_SPAN(obs_domain_, "controller.tick") starts a steady_clock timer
// that records its elapsed nanoseconds into the current MetricsRegistry
// (src/obs/metrics.h) under the domain's prefix when the enclosing scope
// exits. Per-name aggregates (count / total / min / max / p50 / p99 from
// log2 buckets) come back via MetricsRegistry::Snapshot().
//
// Cost: two steady_clock reads plus one hashed map update in the current
// (single-writer, lock-free) registry.
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
  ScopedSpan(DomainId domain, std::string_view name)
      : domain_(domain), name_(name),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedSpan() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    SpanRecord(domain_, name_,
               static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                       .count()));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  DomainId domain_;
  std::string_view name_;  // Caller keeps the name alive (string literals).
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace ampere

#define AMPERE_OBS_SPAN_CONCAT_INNER(a, b) a##b
#define AMPERE_OBS_SPAN_CONCAT(a, b) AMPERE_OBS_SPAN_CONCAT_INNER(a, b)
// Times the rest of the enclosing scope under `domain` (an
// ::ampere::obs::DomainId) and `name` (a string literal).
#define AMPERE_SPAN(domain, name)                              \
  ::ampere::obs::ScopedSpan AMPERE_OBS_SPAN_CONCAT(ampere_span_, \
                                                   __LINE__)((domain), (name))

#endif  // SRC_OBS_SPAN_H_
