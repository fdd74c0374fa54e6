#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "util/logger.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hsbp::util {
namespace {

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.elapsed();
  const double b = t.elapsed();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Stopwatch, AccumulatesIntervals) {
  Stopwatch w;
  EXPECT_EQ(w.total(), 0.0);
  w.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double lap = w.stop();
  EXPECT_GT(lap, 0.0);
  EXPECT_DOUBLE_EQ(w.total(), lap);
  w.start();
  const double second = w.stop();
  EXPECT_DOUBLE_EQ(w.total(), lap + second);
}

TEST(Stopwatch, StopWithoutStartIsNoop) {
  Stopwatch w;
  EXPECT_EQ(w.stop(), 0.0);
  EXPECT_EQ(w.total(), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "V"});
  t.row().cell("s1").cell(static_cast<std::int64_t>(100));
  t.row().cell("longer-name").cell(static_cast<std::int64_t>(7));
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
  // Every line has the same width.
  std::istringstream lines(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, FormatsDoublesWithPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 3), "1.000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Table, CountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.row().cell("x");
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Logger, LevelRoundTrip) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  set_log_level(original);
}

TEST(Logger, FormattingDoesNotCrash) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::Off);
  HSBP_LOG_INFO("dropped %d %s", 1, "msg");
  set_log_level(LogLevel::Error);
  HSBP_LOG_ERROR("emitted %d", 2);
  set_log_level(original);
}

}  // namespace
}  // namespace hsbp::util
