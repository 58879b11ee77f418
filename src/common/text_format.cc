#include "src/common/text_format.h"

#include <cstdio>
#include <cstdlib>

namespace ampere {

std::string FormatDouble(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string CsvEscape(std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace ampere
