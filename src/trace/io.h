// CSV serialization for traces, so generated workloads can be exported to
// other tools and real trace extracts (e.g. from the Huawei release) can be
// loaded into the analyses.
//
// Format (header included):
//   function_id,arrival_us,exec_us,cpu_us,alloc_vcpus,alloc_mem_mb,
//   used_mem_mb,cold_start,init_us,req_bytes,resp_bytes
// The reader also accepts the legacy 9-column layout (no payload columns);
// missing payload sizes load as 0 = "unrecorded".

#ifndef FAASCOST_TRACE_IO_H_
#define FAASCOST_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/record.h"

namespace faascost {

// Writes the trace as CSV. Returns the number of records written.
size_t WriteTraceCsv(std::ostream& out, const std::vector<RequestRecord>& records);
size_t WriteTraceCsvFile(const std::string& path, const std::vector<RequestRecord>& records);

// Parses a CSV trace. Lines that fail to parse, or hold an arrival or
// duration outside [0, kMaxDuration], are skipped and counted in `*skipped`
// (if non-null); a missing header is tolerated.
std::vector<RequestRecord> ReadTraceCsv(std::istream& in, size_t* skipped = nullptr);
std::vector<RequestRecord> ReadTraceCsvFile(const std::string& path,
                                            size_t* skipped = nullptr);

}  // namespace faascost

#endif  // FAASCOST_TRACE_IO_H_
