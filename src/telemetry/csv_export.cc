#include "src/telemetry/csv_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "src/common/check.h"

namespace ampere {

void ExportCsv(const TimeSeriesDb& db, std::span<const std::string> series,
               std::ostream& out) {
  AMPERE_CHECK(!series.empty());
  out << "minutes";
  for (const std::string& name : series) {
    out << "," << name;
  }
  out << "\n";

  // Row index: union of timestamps -> per-series value, in time order.
  std::map<int64_t, std::vector<std::pair<size_t, double>>> rows;
  for (size_t column = 0; column < series.size(); ++column) {
    db.SeriesStitched(series[column]).ForEachPoint([&](const TimePoint& p) {
      rows[p.time.micros()].emplace_back(column, p.value);
    });
  }

  char buf[64];
  for (const auto& [micros, cells] : rows) {
    // Cells arrive grouped by column, in column order (emplaced column by
    // column). A series that repeats this stamp holds a run of cells; its
    // k-th point goes to the k-th row written for the stamp.
    size_t depth = 0;
    for (size_t i = 0; i < cells.size();) {
      size_t j = i;
      while (j < cells.size() && cells[j].first == cells[i].first) {
        ++j;
      }
      depth = std::max(depth, j - i);
      i = j;
    }
    std::snprintf(buf, sizeof(buf), "%.4f",
                  SimTime::Micros(micros).minutes());
    const std::string stamp = buf;
    for (size_t k = 0; k < depth; ++k) {
      out << stamp;
      size_t run = 0;  // First cell of the current column's run.
      for (size_t column = 0; column < series.size(); ++column) {
        out << ",";
        size_t end = run;
        while (end < cells.size() && cells[end].first == column) {
          ++end;
        }
        if (k < end - run) {
          std::snprintf(buf, sizeof(buf), "%.4f", cells[run + k].second);
          out << buf;
        }
        run = end;
      }
      out << "\n";
    }
  }
}

void ExportCsvFile(const TimeSeriesDb& db,
                   std::span<const std::string> series,
                   const std::string& path) {
  std::ofstream out(path);
  AMPERE_CHECK(out.good()) << "cannot open " << path << " for writing";
  ExportCsv(db, series, out);
  AMPERE_CHECK(out.good()) << "write to " << path << " failed";
}

}  // namespace ampere
