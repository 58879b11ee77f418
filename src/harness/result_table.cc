#include "src/harness/result_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace harness {

double ResultRow::Metric(std::string_view name) const {
  const double* value = FindMetric(name);
  AMPERE_CHECK(value != nullptr)
      << "scenario '" << scenario << "' has no metric '" << name << "'";
  return *value;
}

const double* ResultRow::FindMetric(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) {
      return &m.value;
    }
  }
  return nullptr;
}

std::vector<std::string> ResultTable::MetricNames() const {
  std::vector<std::string> names;
  std::unordered_set<std::string_view> seen;
  for (const ResultRow& r : rows_) {
    for (const MetricValue& m : r.metrics) {
      if (seen.insert(m.name).second) {
        names.push_back(m.name);
      }
    }
  }
  return names;
}

std::string ResultTable::ToText() const {
  std::vector<std::string> names = MetricNames();
  size_t scenario_width = 8;
  for (const ResultRow& r : rows_) {
    scenario_width = std::max(scenario_width, r.scenario.size());
  }

  std::string out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%4s  %-*s", "#",
                static_cast<int>(scenario_width), "scenario");
  out += buffer;
  for (const std::string& name : names) {
    std::snprintf(buffer, sizeof(buffer), " %12s", name.c_str());
    out += buffer;
  }
  out += "      wall_ms\n";

  for (const ResultRow& r : rows_) {
    std::snprintf(buffer, sizeof(buffer), "%4zu  %-*s", r.index + 1,
                  static_cast<int>(scenario_width), r.scenario.c_str());
    out += buffer;
    if (!r.ok) {
      out += "  FAILED: " + r.error + "\n";
      continue;
    }
    for (const std::string& name : names) {
      const double* value = r.FindMetric(name);
      if (value != nullptr) {
        std::snprintf(buffer, sizeof(buffer), " %12.4f", *value);
      } else {
        std::snprintf(buffer, sizeof(buffer), " %12s", "-");
      }
      out += buffer;
    }
    std::snprintf(buffer, sizeof(buffer), " %12.1f\n", r.wall_ms);
    out += buffer;
  }
  return out;
}

std::string ResultTable::ToCsv() const {
  std::vector<std::string> names = MetricNames();
  std::string out = "index,scenario,seed,ok";
  for (const std::string& name : names) {
    out += ',' + CsvEscape(name);
  }
  out += '\n';
  for (const ResultRow& r : rows_) {
    out += std::to_string(r.index) + ',' + CsvEscape(r.scenario) + ',' +
           std::to_string(r.seed) + ',' + (r.ok ? "1" : "0");
    for (const std::string& name : names) {
      out += ',';
      if (const double* value = r.FindMetric(name); value != nullptr) {
        out += FormatDouble(*value);
      }
    }
    out += '\n';
  }
  return out;
}

std::string ResultTable::ToJson() const {
  std::string out = "{\n";
  out += "  \"jobs\": " + std::to_string(jobs_) + ",\n";
  out += "  \"total_wall_ms\": " + FormatDouble(total_wall_ms_) + ",\n";
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const ResultRow& r = rows_[i];
    out += "    {\n";
    out += "      \"index\": " + std::to_string(r.index) + ",\n";
    out += "      \"scenario\": \"" + JsonEscape(r.scenario) + "\",\n";
    out += "      \"seed\": " + std::to_string(r.seed) + ",\n";
    out += std::string("      \"ok\": ") + (r.ok ? "true" : "false") + ",\n";
    if (!r.ok) {
      out += "      \"error\": \"" + JsonEscape(r.error) + "\",\n";
    }
    out += "      \"wall_ms\": " + FormatDouble(r.wall_ms) + ",\n";
    out += "      \"metrics\": {";
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      if (m > 0) {
        out += ", ";
      }
      out += '"';
      out += JsonEscape(r.metrics[m].name);
      out += "\": ";
      out += FormatDouble(r.metrics[m].value);
    }
    out += "},\n";
    out += "      \"notes\": \"" + JsonEscape(r.notes) + "\",\n";
    if (!r.obs_json.empty()) {
      out += "      \"obs\": ";
      out += r.obs_json;
      out += ",\n";
    }
    if (!r.artifacts.empty()) {
      out += "      \"artifacts\": [";
      for (size_t a = 0; a < r.artifacts.size(); ++a) {
        if (a > 0) {
          out += ", ";
        }
        out += '"';
        out += JsonEscape(r.artifacts[a]);
        out += '"';
      }
      out += "],\n";
    }
    out += "      \"log\": \"" + JsonEscape(r.log) + "\"\n";
    out += (i + 1 < rows_.size()) ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool ResultTable::SameData(const ResultTable& a, const ResultTable& b) {
  if (a.rows_.size() != b.rows_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rows_.size(); ++i) {
    const ResultRow& x = a.rows_[i];
    const ResultRow& y = b.rows_[i];
    if (x.index != y.index || x.scenario != y.scenario || x.seed != y.seed ||
        x.ok != y.ok || x.error != y.error || x.notes != y.notes ||
        x.metrics.size() != y.metrics.size()) {
      return false;
    }
    for (size_t m = 0; m < x.metrics.size(); ++m) {
      if (x.metrics[m].name != y.metrics[m].name ||
          std::memcmp(&x.metrics[m].value, &y.metrics[m].value,
                      sizeof(double)) != 0) {
        return false;  // Bit-exact comparison (0.0 vs -0.0 differ; NaN==NaN).
      }
    }
  }
  return true;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AMPERE_CHECK(out.good()) << "cannot open " << path << " for writing";
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  AMPERE_CHECK(out.good()) << "short write to " << path;
}

}  // namespace harness
}  // namespace ampere
