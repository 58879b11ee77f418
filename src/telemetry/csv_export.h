// CSV export of time-series data.
//
// The production monitor exposes a RESTful query API; downstream tooling
// (dashboards, the paper's own plots) consumes tabular dumps. ExportCsv
// writes selected series side by side, one row per distinct timestamp
// (union of all series' timestamps; missing cells are left empty). A series
// may repeat a timestamp: its k-th point at a stamp lands in the k-th row
// for that stamp, so a stamp gets as many rows as its deepest repeat.

#ifndef SRC_TELEMETRY_CSV_EXPORT_H_
#define SRC_TELEMETRY_CSV_EXPORT_H_

#include <iosfwd>
#include <span>
#include <string>

#include "src/telemetry/timeseries_db.h"

namespace ampere {

// First column "minutes" (simulation time), then one column per series, in
// the given order. Series names become column headers.
void ExportCsv(const TimeSeriesDb& db, std::span<const std::string> series,
               std::ostream& out);

void ExportCsvFile(const TimeSeriesDb& db,
                   std::span<const std::string> series,
                   const std::string& path);

}  // namespace ampere

#endif  // SRC_TELEMETRY_CSV_EXPORT_H_
