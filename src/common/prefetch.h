// Cache prefetch hints. A prefetch never faults and never changes a result;
// it only starts a cache-line fill early, so that a load issued later finds
// the line on its way instead of starting a miss of its own.

#ifndef SRC_COMMON_PREFETCH_H_
#define SRC_COMMON_PREFETCH_H_

#include <cstddef>

namespace ampere {

inline constexpr size_t kCacheLineBytes = 64;

// Prefetches, for reading, every cache line that [p, p + bytes) touches
// (bytes > 0): one prefetch every 64 bytes from `p`, then one of the last
// byte, whose line the others miss when [p, p + bytes) straddles one more
// line than bytes / 64 rounds up to. The trip count depends on `bytes`
// alone, so the loop branch does not depend on where a record happens to
// sit; an extra prefetch of a line already on its way costs next to
// nothing.
//
// Always inlined, and so must be any wrapper around it: a function whose
// only effect is a prefetch looks free of side effects to GCC's
// interprocedural analysis, which then deletes calls to it (GCC 12, -O3).
[[gnu::always_inline]] inline void PrefetchBytes(const void* p,
                                                 size_t bytes) {
  const char* const begin = static_cast<const char*>(p);
  for (size_t offset = 0; offset < bytes; offset += kCacheLineBytes) {
    __builtin_prefetch(begin + offset);
  }
  __builtin_prefetch(begin + bytes - 1);
}

}  // namespace ampere

#endif  // SRC_COMMON_PREFETCH_H_
