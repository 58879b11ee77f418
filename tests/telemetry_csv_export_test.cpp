#include "src/telemetry/csv_export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(CsvExportTest, HeaderAndAlignedRows) {
  TimeSeriesDb db;
  db.Append("a", SimTime::Minutes(1), 10.0);
  db.Append("a", SimTime::Minutes(2), 20.0);
  db.Append("b", SimTime::Minutes(1), 100.0);
  db.Append("b", SimTime::Minutes(2), 200.0);
  std::ostringstream out;
  std::vector<std::string> series{"a", "b"};
  ExportCsv(db, series, out);
  auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "minutes,a,b");
  EXPECT_EQ(lines[1], "1.0000,10.0000,100.0000");
  EXPECT_EQ(lines[2], "2.0000,20.0000,200.0000");
}

TEST(CsvExportTest, MissingCellsAreEmpty) {
  TimeSeriesDb db;
  db.Append("a", SimTime::Minutes(1), 1.0);
  db.Append("b", SimTime::Minutes(2), 2.0);
  std::ostringstream out;
  std::vector<std::string> series{"a", "b"};
  ExportCsv(db, series, out);
  auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "1.0000,1.0000,");
  EXPECT_EQ(lines[2], "2.0000,,2.0000");
}

TEST(CsvExportTest, RepeatedStampsKeepEveryValue) {
  // Appends only need non-decreasing stamps, so a series may repeat one:
  // its k-th point at a stamp goes to the k-th row for that stamp.
  TimeSeriesDb db;
  db.Append("a", SimTime::Minutes(1), 1.0);
  db.Append("a", SimTime::Minutes(1), 2.0);
  db.Append("b", SimTime::Minutes(1), 3.0);
  db.Append("b", SimTime::Minutes(2), 4.0);
  std::ostringstream out;
  std::vector<std::string> series{"a", "b"};
  ExportCsv(db, series, out);
  auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[1], "1.0000,1.0000,3.0000");
  EXPECT_EQ(lines[2], "1.0000,2.0000,");
  EXPECT_EQ(lines[3], "2.0000,,4.0000");
}

TEST(CsvExportTest, UnknownSeriesYieldsEmptyColumn) {
  TimeSeriesDb db;
  db.Append("a", SimTime::Minutes(1), 1.0);
  std::ostringstream out;
  std::vector<std::string> series{"a", "missing"};
  ExportCsv(db, series, out);
  auto lines = Lines(out.str());
  EXPECT_EQ(lines[1], "1.0000,1.0000,");
}

TEST(CsvExportTest, EmptySeriesListThrows) {
  TimeSeriesDb db;
  std::ostringstream out;
  EXPECT_THROW(ExportCsv(db, {}, out), CheckFailure);
}

TEST(CsvExportTest, FileExport) {
  TimeSeriesDb db;
  db.Append("x", SimTime::Minutes(1), 5.0);
  std::vector<std::string> series{"x"};
  const ScratchDir scratch("csv_export");
  const std::string path = scratch.path() + "/export.csv";
  ExportCsvFile(db, series, path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "minutes,x");
}

}  // namespace
}  // namespace ampere
