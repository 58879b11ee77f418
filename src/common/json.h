// JSON string escaping shared by every hand-built JSON emitter (the metrics
// snapshot, the decision journal, the flight recorder's events and
// postmortems, the Chrome trace export and the harness result table).

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace ampere {

// The body of a JSON string literal holding `s`: quote and backslash are
// escaped, \n \r \t use their short forms, and every other control
// character below 0x20 becomes \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace ampere

#endif  // SRC_COMMON_JSON_H_
