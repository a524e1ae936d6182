#include "src/trace/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/generator.h"

namespace faascost {
namespace {

RequestRecord Sample() {
  RequestRecord r;
  r.function_id = 42;
  r.arrival = 1'000'000;
  r.exec_duration = 58'190;
  r.cpu_time = 33'100;
  r.alloc_vcpus = 0.5;
  r.alloc_mem_mb = 1'024.0;
  r.used_mem_mb = 250.5;
  r.cold_start = true;
  r.init_duration = 740'000;
  r.req_bytes = 4'096;
  r.resp_bytes = 131'072;
  return r;
}

TEST(TraceIo, RoundTripSingleRecord) {
  std::stringstream ss;
  EXPECT_EQ(WriteTraceCsv(ss, {Sample()}), 1u);
  size_t skipped = 99;
  const auto back = ReadTraceCsv(ss, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), 1u);
  const auto& r = back[0];
  EXPECT_EQ(r.function_id, 42);
  EXPECT_EQ(r.arrival, 1'000'000);
  EXPECT_EQ(r.exec_duration, 58'190);
  EXPECT_EQ(r.cpu_time, 33'100);
  EXPECT_DOUBLE_EQ(r.alloc_vcpus, 0.5);
  EXPECT_DOUBLE_EQ(r.alloc_mem_mb, 1'024.0);
  EXPECT_DOUBLE_EQ(r.used_mem_mb, 250.5);
  EXPECT_TRUE(r.cold_start);
  EXPECT_EQ(r.init_duration, 740'000);
  EXPECT_EQ(r.req_bytes, 4'096);
  EXPECT_EQ(r.resp_bytes, 131'072);
}

TEST(TraceIo, RoundTripGeneratedTrace) {
  TraceGenConfig cfg;
  cfg.num_requests = 2'000;
  cfg.num_functions = 50;
  const auto trace = TraceGenerator(cfg, 9).Generate();
  std::stringstream ss;
  WriteTraceCsv(ss, trace);
  const auto back = ReadTraceCsv(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].exec_duration, trace[i].exec_duration);
    EXPECT_EQ(back[i].cpu_time, trace[i].cpu_time);
    EXPECT_EQ(back[i].cold_start, trace[i].cold_start);
    EXPECT_NEAR(back[i].used_mem_mb, trace[i].used_mem_mb, 1e-4);
  }
}

TEST(TraceIo, HeaderToleratedOnRead) {
  std::stringstream ss;
  ss << "function_id,arrival_us,exec_us,cpu_us,alloc_vcpus,alloc_mem_mb,"
        "used_mem_mb,cold_start,init_us\n"
     << "1,0,100,50,1,128,64,0,0\n";
  const auto back = ReadTraceCsv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].exec_duration, 100);
  EXPECT_FALSE(back[0].cold_start);
}

TEST(TraceIo, LegacyNineColumnLinesLoadWithZeroPayloads) {
  std::stringstream ss;
  // A v1 extract: old header, no payload columns.
  ss << "function_id,arrival_us,exec_us,cpu_us,alloc_vcpus,alloc_mem_mb,"
        "used_mem_mb,cold_start,init_us\n"
     << "7,10,100,50,1,128,64,0,0\n";
  size_t skipped = 9;
  const auto back = ReadTraceCsv(ss, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].function_id, 7);
  EXPECT_EQ(back[0].req_bytes, 0);
  EXPECT_EQ(back[0].resp_bytes, 0);
}

TEST(TraceIo, TenColumnLinesAreMalformed) {
  std::stringstream ss;
  ss << "1,0,100,50,1,128,64,0,0,4096\n";  // Payloads come in pairs.
  size_t skipped = 0;
  EXPECT_TRUE(ReadTraceCsv(ss, &skipped).empty());
  EXPECT_EQ(skipped, 1u);
}

TEST(TraceIo, MalformedLinesSkippedAndCounted) {
  std::stringstream ss;
  ss << "1,0,100,50,1,128,64,0,0\n"
     << "not,a,valid,line\n"
     << "2,5,200,80,0.5,256,xx,0,0\n"
     << "3,9,300,90,1,512,100,1,400\n";
  size_t skipped = 0;
  const auto back = ReadTraceCsv(ss, &skipped);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(skipped, 2u);
}

// A negative time, or one past the duration ceiling, would overflow the
// engines' sums of times: such rows are skipped and counted like malformed
// ones. A time at the ceiling loads.
TEST(TraceIo, OutOfRangeTimesSkippedAndCounted) {
  std::stringstream ss;
  ss << "1,-1,100,50,1,128,64,0,0\n"
     << "2,5,9223372036854775797,50,1,128,64,0,0\n"
     << "3,5,100,-50,1,128,64,0,0\n"
     << "4,5,100,50,1,128,64,1," << kMaxDuration + 1 << "\n"
     << "5," << kMaxDuration << ",100,50,1,128,64,1," << kMaxDuration << "\n";
  size_t skipped = 0;
  const auto back = ReadTraceCsv(ss, &skipped);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].function_id, 5);
  EXPECT_EQ(skipped, 4u);
}

TEST(TraceIo, EmptyInput) {
  std::stringstream ss;
  size_t skipped = 7;
  EXPECT_TRUE(ReadTraceCsv(ss, &skipped).empty());
  EXPECT_EQ(skipped, 0u);
}

TEST(TraceIo, FileRoundTrip) {
  TraceGenConfig cfg;
  cfg.num_requests = 100;
  cfg.num_functions = 10;
  const auto trace = TraceGenerator(cfg, 4).Generate();
  const std::string path = ::testing::TempDir() + "/faascost_trace_test.csv";
  EXPECT_EQ(WriteTraceCsvFile(path, trace), trace.size());
  const auto back = ReadTraceCsvFile(path);
  EXPECT_EQ(back.size(), trace.size());
}

TEST(TraceIo, MissingFileReturnsEmpty) {
  size_t skipped = 3;
  EXPECT_TRUE(ReadTraceCsvFile("/nonexistent/path.csv", &skipped).empty());
  EXPECT_EQ(skipped, 0u);
}

}  // namespace
}  // namespace faascost
