#include "src/workflow/dag.h"

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "src/common/validate.h"

namespace faascost {

int WorkflowDag::AddHop(HopSpec hop) {
  hops.push_back(std::move(hop));
  children.emplace_back();
  parents.emplace_back();
  child_bytes.emplace_back();
  return static_cast<int>(hops.size()) - 1;
}

void WorkflowDag::AddEdge(int from, int to, int64_t bytes) {
  const int n = static_cast<int>(hops.size());
  if (from >= 0 && from < n) {
    children[static_cast<size_t>(from)].push_back(to);
    child_bytes[static_cast<size_t>(from)].push_back(bytes);
  }
  if (to >= 0 && to < n) {
    parents[static_cast<size_t>(to)].push_back(from);
  }
}

int64_t WorkflowDag::EdgeBytes(int from, int to) const {
  if (from < 0 || static_cast<size_t>(from) >= children.size()) {
    return 0;
  }
  const std::vector<int>& kids = children[static_cast<size_t>(from)];
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kids[i] == to && i < child_bytes[static_cast<size_t>(from)].size()) {
      return child_bytes[static_cast<size_t>(from)][i];
    }
  }
  return 0;
}

std::vector<int> WorkflowDag::Sources() const {
  std::vector<int> out;
  for (size_t h = 0; h < hops.size(); ++h) {
    if (parents[h].empty()) {
      out.push_back(static_cast<int>(h));
    }
  }
  return out;
}

std::vector<int> WorkflowDag::Sinks() const {
  std::vector<int> out;
  for (size_t h = 0; h < hops.size(); ++h) {
    if (children[h].empty()) {
      out.push_back(static_cast<int>(h));
    }
  }
  return out;
}

std::vector<int> WorkflowDag::TopoOrder() const {
  const size_t n = hops.size();
  std::vector<int> indegree(n, 0);
  for (size_t h = 0; h < n; ++h) {
    for (const int c : children[h]) {
      if (c >= 0 && static_cast<size_t>(c) < n) {
        ++indegree[static_cast<size_t>(c)];
      }
    }
  }
  // Min-heap on hop index: the order is a pure function of the DAG, not of
  // insertion order, so validation messages and traversals stay stable.
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (size_t h = 0; h < n; ++h) {
    if (indegree[h] == 0) {
      ready.push(static_cast<int>(h));
    }
  }
  std::vector<int> order;
  order.reserve(n);
  while (!ready.empty()) {
    const int h = ready.top();
    ready.pop();
    order.push_back(h);
    for (const int c : children[static_cast<size_t>(h)]) {
      if (c < 0 || static_cast<size_t>(c) >= n) {
        continue;
      }
      if (--indegree[static_cast<size_t>(c)] == 0) {
        ready.push(c);
      }
    }
  }
  if (order.size() != n) {
    return {};  // Cycle.
  }
  return order;
}

std::vector<std::string> WorkflowDag::Validate() const {
  std::vector<std::string> errors;
  if (hops.empty()) {
    errors.push_back("has no hops");
  }
  const int n = static_cast<int>(hops.size());
  for (int h = 0; h < n; ++h) {
    const HopSpec& hop = hops[static_cast<size_t>(h)];
    std::vector<std::string> bad;
    CheckWithin(&bad, "exec_mean", hop.exec_mean, 0, kMaxDuration, Ends::kOpenLow, "a century");
    CheckAtLeast(&bad, "exec_cv", hop.exec_cv, 0.0);
    CheckWithin(&bad, "cpu_fraction", hop.cpu_fraction, 0.0, 1.0);
    CheckAbove(&bad, "vcpus", hop.vcpus, 0.0);
    CheckAbove(&bad, "mem_mb", hop.mem_mb, 0.0);
    CheckAtLeast(&bad, "timeout", hop.timeout, 0, "0 = none");
    // A NaN failure_rate must not read as "inherit the engine-wide rate".
    CheckWithin(&bad, "failure_rate", hop.failure_rate, -kInf, 1.0, Ends::kClosed,
                "< 0 uses the engine-wide rate");
    CheckWithin(&bad, "quorum", hop.quorum, 0,
                static_cast<int>(parents[static_cast<size_t>(h)].size()), Ends::kClosed,
                "0 = every parent");
    CheckAtLeast(&bad, "zone", hop.zone, 0);
    for (const int c : children[static_cast<size_t>(h)]) {
      if (c < 0 || c >= n) {
        bad.push_back("edge to out-of-range hop " + std::to_string(c));
      } else if (c == h) {
        bad.push_back("self-edge");
      }
    }
    for (const int64_t b : child_bytes[static_cast<size_t>(h)]) {
      CheckAtLeast(&bad, "child_bytes", b, 0);
    }
    AppendErrors(&errors, bad, "hop ", h, ": ");
  }
  CheckAtLeast(&errors, "input_bytes", input_bytes, 0);
  CheckAtLeast(&errors, "output_bytes", output_bytes, 0);
  if (errors.empty() && TopoOrder().empty()) {
    errors.push_back("contains a cycle");
  }
  std::vector<std::string> named;
  AppendErrors(&named, errors, "dag '", name, "': ");
  return named;
}

WorkflowDag MakeChainDag(const std::string& name, int length, const HopSpec& proto,
                         bool spread_zones) {
  WorkflowDag dag;
  dag.name = name;
  for (int i = 0; i < length; ++i) {
    HopSpec hop = proto;
    hop.name = name + ".h" + std::to_string(i);
    if (spread_zones) {
      hop.zone = proto.zone + i;
    }
    dag.AddHop(std::move(hop));
    if (i > 0) {
      dag.AddEdge(i - 1, i);
    }
  }
  return dag;
}

WorkflowDag MakeFanOutDag(const std::string& name, int width, int quorum,
                          const HopSpec& proto) {
  WorkflowDag dag;
  dag.name = name;
  HopSpec source = proto;
  source.name = name + ".src";
  const int src = dag.AddHop(std::move(source));
  for (int i = 0; i < width; ++i) {
    HopSpec branch = proto;
    branch.name = name + ".b" + std::to_string(i);
    branch.zone = proto.zone + i;
    const int b = dag.AddHop(std::move(branch));
    dag.AddEdge(src, b);
  }
  HopSpec join = proto;
  join.name = name + ".join";
  join.quorum = quorum;
  const int j = dag.AddHop(std::move(join));
  for (int i = 0; i < width; ++i) {
    dag.AddEdge(src + 1 + i, j);
  }
  return dag;
}

WorkflowDag MakeMapReduceDag(const std::string& name, int mappers, const HopSpec& proto) {
  WorkflowDag dag;
  dag.name = name;
  HopSpec split = proto;
  split.name = name + ".split";
  const int s = dag.AddHop(std::move(split));
  for (int i = 0; i < mappers; ++i) {
    HopSpec map = proto;
    map.name = name + ".map" + std::to_string(i);
    map.zone = proto.zone + i;
    const int m = dag.AddHop(std::move(map));
    dag.AddEdge(s, m);
  }
  HopSpec reduce = proto;
  reduce.name = name + ".reduce";
  // Shuffle cost: the reduce hop reads every mapper's output.
  reduce.exec_mean = proto.exec_mean + (proto.exec_mean / 4) * mappers;
  const int r = dag.AddHop(std::move(reduce));
  for (int i = 0; i < mappers; ++i) {
    dag.AddEdge(s + 1 + i, r);
  }
  return dag;
}

void ApplyUniformPayloads(WorkflowDag& dag, int64_t input, int64_t edge,
                          int64_t output) {
  dag.input_bytes = input;
  dag.output_bytes = output;
  for (std::vector<int64_t>& bytes : dag.child_bytes) {
    std::fill(bytes.begin(), bytes.end(), edge);
  }
}

}  // namespace faascost
