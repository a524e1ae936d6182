#include "src/trace/io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/common/fileio.h"

namespace faascost {

namespace {

// v2 header: the two payload columns were appended for the network model.
// The reader accepts both widths (and either header), so v1 extracts keep
// loading; absent payload columns parse as 0 = "unrecorded".
constexpr const char* kHeader =
    "function_id,arrival_us,exec_us,cpu_us,alloc_vcpus,alloc_mem_mb,"
    "used_mem_mb,cold_start,init_us,req_bytes,resp_bytes";
constexpr std::string_view kHeaderPrefix = "function_id,";

bool ParseField(std::string_view field, int64_t& out) {
  const auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

bool ParseField(std::string_view field, double& out) {
  // std::from_chars for doubles is not universally available; strtod via a
  // bounded copy keeps this portable.
  char buf[64];
  if (field.empty() || field.size() >= sizeof(buf)) {
    return false;
  }
  field.copy(buf, field.size());
  buf[field.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + field.size();
}

bool ParseLine(std::string_view line, RequestRecord& r) {
  std::string_view fields[11];
  size_t n = 0;
  while (n < 11) {
    const size_t comma = line.find(',');
    fields[n++] = line.substr(0, comma);
    if (comma == std::string_view::npos) {
      break;
    }
    line.remove_prefix(comma + 1);
  }
  if (n != 9 && n != 11) {
    return false;
  }
  int64_t cold = 0;
  if (!ParseField(fields[0], r.function_id) || !ParseField(fields[1], r.arrival) ||
      !ParseField(fields[2], r.exec_duration) || !ParseField(fields[3], r.cpu_time) ||
      !ParseField(fields[4], r.alloc_vcpus) || !ParseField(fields[5], r.alloc_mem_mb) ||
      !ParseField(fields[6], r.used_mem_mb) || !ParseField(fields[7], cold) ||
      !ParseField(fields[8], r.init_duration)) {
    return false;
  }
  if (n == 11 &&
      (!ParseField(fields[9], r.req_bytes) || !ParseField(fields[10], r.resp_bytes))) {
    return false;
  }
  r.cold_start = cold != 0;
  // Times past the ceiling would overflow the engines' sums of them.
  const auto in_range = [](MicroSecs us) { return us >= 0 && us <= kMaxDuration; };
  return in_range(r.arrival) && in_range(r.exec_duration) && in_range(r.cpu_time) &&
         in_range(r.init_duration);
}

}  // namespace

size_t WriteTraceCsv(std::ostream& out, const std::vector<RequestRecord>& records) {
  out.precision(17);  // Round-trip-exact doubles.
  out << kHeader << '\n';
  for (const auto& r : records) {
    out << r.function_id << ',' << r.arrival << ',' << r.exec_duration << ','
        << r.cpu_time << ',' << r.alloc_vcpus << ',' << r.alloc_mem_mb << ','
        << r.used_mem_mb << ',' << (r.cold_start ? 1 : 0) << ',' << r.init_duration
        << ',' << r.req_bytes << ',' << r.resp_bytes << '\n';
  }
  return records.size();
}

size_t WriteTraceCsvFile(const std::string& path,
                         const std::vector<RequestRecord>& records) {
  // Render in memory, then land the bytes atomically so a crash mid-write
  // cannot leave a truncated trace behind.
  std::ostringstream out;
  const size_t n = WriteTraceCsv(out, records);
  try {
    WriteFileAtomic(path, out.str());
  } catch (const std::runtime_error&) {
    return 0;
  }
  return n;
}

std::vector<RequestRecord> ReadTraceCsv(std::istream& in, size_t* skipped) {
  std::vector<RequestRecord> out;
  size_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    // Skip any header row, current or legacy width.
    if (line.empty() || std::string_view(line).substr(0, kHeaderPrefix.size()) ==
                            kHeaderPrefix) {
      continue;
    }
    RequestRecord r;
    if (ParseLine(line, r)) {
      out.push_back(r);
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) {
    *skipped = bad;
  }
  return out;
}

std::vector<RequestRecord> ReadTraceCsvFile(const std::string& path, size_t* skipped) {
  std::ifstream in(path);
  if (!in) {
    if (skipped != nullptr) {
      *skipped = 0;
    }
    return {};
  }
  return ReadTraceCsv(in, skipped);
}

}  // namespace faascost
