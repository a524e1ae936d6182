// Phase 2 of the two-phase faaslint analyzer: semantic rules over the merged
// cross-file index (see index.h for phase 1).
//
// Rule catalog:
//   R6  mixed-unit arithmetic/comparison: adding or comparing values whose
//       unit tags differ (`end_us - start_ms`, `bytes < quota_gb`), folding
//       a non-USD quantity into a USD accumulator, and declarations whose
//       type contradicts their name (`MicroSecs window_ms`). Tags come from
//       the naming convention (SuffixTag) first, then from the cross-file
//       index of unit-typed declarations; untagged operands never fire.
//   R7  RNG stream registry: every `k*Stream`/`k*StreamBase` constant must
//       be declared in src/common/stream_registry.h (one canonical table),
//       two constants must never share a value, a name must not be
//       redeclared, and the stream argument of DeriveSeed must be a
//       registered constant expression — never a raw integer literal.
//       Second-level derivations (splitting an already-derived seed by an
//       index) pass a non-literal expression and are exempt by construction.
//   R8  null-sink contract: dereferencing a pointer declared with a contract
//       type (*Sink*, Auditor, NetworkModel, TimeSeries)
//       must be preceded, within the same function, by a null guard on that
//       name (`x != nullptr`, `if (x)`, `!x`, `x && ...`, `x ? ...`) or an
//       address-of assignment (`x = &y`). "Preceded" approximates
//       dominance; a guard anywhere earlier in the function counts.
//   R9  concurrency readiness for the sharded-engine work: mutable
//       namespace-scope variables and mutable function-local statics inside
//       the engine directories are findings; the JSON report additionally
//       carries a full inventory of shared-mutable-state sites (those, plus
//       unordered-container members of Step/Run types and null-sink
//       contract pointers) for the engine directories.
//
// Suppression works exactly as for R1-R5: inline `faaslint:allow(R6)`
// markers and allowlist entries.

#ifndef FAASCOST_TOOLS_FAASLINT_SEMANTIC_H_
#define FAASCOST_TOOLS_FAASLINT_SEMANTIC_H_

#include <string>
#include <vector>

#include "tools/faaslint/index.h"
#include "tools/faaslint/rules.h"

namespace faascost::faaslint {

struct SemanticOptions {
  // Display-path prefixes in scope for R9 findings and the concurrency
  // inventory. Ignored when `concurrency_everywhere` is set (the fixture
  // corpus uses that: fixture paths are bare file names).
  std::vector<std::string> concurrency_dirs = {"src/platform", "src/cluster",
                                               "src/workflow"};
  bool concurrency_everywhere = false;
};

// One analyzed file: its phase-1 facts plus the lex result the semantic
// token walks re-use. Both pointers must outlive the call.
struct SemanticInput {
  const FileFacts* facts = nullptr;
  const LexResult* lex = nullptr;
};

struct SemanticResult {
  std::vector<Finding> findings;            // Sorted by (file, line, rule, message).
  std::vector<Finding> suppressed_findings; // Silenced by inline allows.
  std::vector<ConcurrencySite> inventory;   // Sorted by (file, line, kind, name).
};

SemanticResult RunSemanticRules(const Index& index,
                                const std::vector<SemanticInput>& files,
                                const SemanticOptions& options);

// The machine-readable report (JSON/SARIF-lite): rule catalog, findings,
// suppression count, and the R9 concurrency inventory, all deterministic.
struct Report {
  int files_scanned = 0;
  int suppressed = 0;
  std::vector<Finding> findings;
  std::vector<ConcurrencySite> inventory;
};

std::string ReportToJson(const Report& report);

}  // namespace faascost::faaslint

#endif  // FAASCOST_TOOLS_FAASLINT_SEMANTIC_H_
