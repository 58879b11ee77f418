// Number and CSV field formatting shared by every hand-built CSV, JSON and
// text emitter (the harness result table, the decision journal, the metrics
// snapshot, the flight recorder, the Chrome trace export and fault plans).

#ifndef SRC_COMMON_TEXT_FORMAT_H_
#define SRC_COMMON_TEXT_FORMAT_H_

#include <string>
#include <string_view>

namespace ampere {

// The shortest "%.*g" rendering that parses back to exactly `value`, else
// "%.17g" (so strtod(FormatDouble(x)) == x for every finite x). -0.0 keeps
// its sign; infinities and NaN print as "inf", "-inf" and "nan".
std::string FormatDouble(double value);

// `field` as one RFC 4180 CSV field: unchanged unless it holds a comma, a
// quote or a newline; then wrapped in quotes with every quote doubled.
std::string CsvEscape(std::string_view field);

}  // namespace ampere

#endif  // SRC_COMMON_TEXT_FORMAT_H_
