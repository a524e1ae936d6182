// Field-level golden tables shared by the engine golden tests
// (tests/cluster/fleet_golden_test.cc, tests/platform/platform_golden_test.cc,
// tests/workflow/workflow_golden_test.cc). A test renders a result as
// (name, value) pairs: counts as integers, doubles as IEEE-754 bit patterns
// (Bits), whole tables as FNV digests (Hex). A golden row is one string of
// whitespace-separated name=value pairs, and a mismatch prints the actual
// row ready to paste.

#ifndef FAASCOST_TESTS_GOLDEN_TABLE_H_
#define FAASCOST_TESTS_GOLDEN_TABLE_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace faascost::golden {

using Fields = std::vector<std::pair<std::string, std::string>>;

inline std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

// The golden-table row for `label` (e.g. "Shape::kCap429, 8") holding `got`.
inline std::string Pasteable(const std::string& label, const Fields& got) {
  std::ostringstream out;
  out << "    {" << label << ",\n     \"";
  int col = 0;
  for (const auto& [name, value] : got) {
    if (col == 3) {
      out << "\"\n     \"";
      col = 0;
    }
    out << name << "=" << value << " ";
    ++col;
  }
  out << "\"},\n";
  return out.str();
}

// Expects `got` to match the golden row `want` field by field; a null `want`
// means the label has no golden row yet. `how` names the run (straight,
// sliced, resumed, ...) in failure messages.
inline void ExpectFields(const std::string& label, const char* want, const Fields& got,
                         const char* how) {
  ASSERT_NE(want, nullptr) << label << " has no golden; actual:\n" << Pasteable(label, got);
  std::istringstream in(want);
  Fields expected;
  for (std::string pair; in >> pair;) {
    const size_t eq = pair.find('=');
    expected.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
  }
  ASSERT_EQ(got.size(), expected.size()) << "golden field list is stale";
  bool all_equal = true;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first);
    EXPECT_EQ(got[i].second, expected[i].second)
        << label << " (" << how << "): " << got[i].first;
    all_equal = all_equal && got[i].second == expected[i].second;
  }
  if (!all_equal) {
    ADD_FAILURE() << "actual:\n" << Pasteable(label, got);
  }
}

}  // namespace faascost::golden

#endif  // FAASCOST_TESTS_GOLDEN_TABLE_H_
