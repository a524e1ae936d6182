// Phase 1 of the two-phase faaslint analyzer: a lightweight cross-file
// symbol index.
//
// Per file, `BuildFileFacts` harvests the facts the semantic rules (R6-R9 in
// semantic.h) need but a single-file token pass cannot act on alone:
//   - declarations whose type carries a unit dimension (MicroSecs, MegaBytes,
//     Usd), so a use site in another translation unit can learn the unit of
//     an unsuffixed name like `deadline`;
//   - declarations with a unit-free numeric type, which conflict a name out
//     of the index (a `double now` in one file must not lend `now` the
//     microsecond tag it has elsewhere);
//   - every `k*Stream` / `k*StreamBase` constant with its literal value, for
//     the RNG stream registry check;
//   - every pointer declared with a null-sink contract type (*Sink*,
//     Auditor, NetworkModel, TimeSeries);
//   - concurrency-readiness sites: mutable namespace-scope variables,
//     mutable function-local statics, and unordered-container members of
//     types that expose a Step/Run hot path.
//
// `MergeFacts` folds the per-file facts into one deterministic `Index`;
// phase 2 (semantic.h) runs the cross-file rules over it.

#ifndef FAASCOST_TOOLS_FAASLINT_INDEX_H_
#define FAASCOST_TOOLS_FAASLINT_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/faaslint/lexer.h"

namespace faascost::faaslint {

// Unit dimensions recognized by the naming convention (`end_us`, `p95_ms`,
// `window_s`, `req_bytes`, `free_gb`, `usd_total`) and the unit typedefs in
// src/common/units.h.
enum class UnitTag {
  kNone,
  kMicros,
  kMillis,
  kSecs,
  kBytes,
  kKb,
  kMb,
  kGb,
  kGbSecs,  // The billing dimension GB·seconds (`gb_s`, `billable_gb_seconds`).
  kUsd,
};

// Short human name of a tag ("us", "ms", ...). kNone maps to "untagged".
std::string_view UnitTagName(UnitTag tag);

// Unit implied by an identifier's spelling, after stripping the trailing
// underscores of member names: suffix `_us`/`_ms`/`_s`/`_sec`/`_secs`/
// `_seconds`/`_bytes`/`_kb`/`_mb`/`_gb`, or a `usd` prefix/suffix segment.
UnitTag SuffixTag(std::string_view name);

// One declaration with a unit-bearing type.
struct UnitDecl {
  std::string name;
  int line = 0;
  UnitTag type_tag = UnitTag::kNone;
};

// One `k*Stream` / `k*StreamBase` constant declaration.
struct StreamConstant {
  std::string name;
  uint64_t value = 0;
  bool has_value = false;  // Initializer parsed as an integer literal.
  std::string file;
  int line = 0;
  bool registered = false;  // Declared in the canonical registry header.
};

// One pointer declared with a null-sink contract type.
struct ContractPointer {
  std::string name;
  std::string type;
  std::string file;
  int line = 0;
};

// One shared-mutable-state or concurrency-relevant site (R9).
struct ConcurrencySite {
  std::string file;
  int line = 0;
  // "mutable_global" | "static_local" | "unordered_hot_member" |
  // "contract_pointer".
  std::string kind;
  std::string name;
  std::string detail;
};

// Facts harvested from one file.
struct FileFacts {
  std::string path;
  std::vector<UnitDecl> typed_decls;
  // Names declared with a unit-free numeric type (or auto) in this file.
  std::set<std::string> untagged_decl_names;
  std::vector<StreamConstant> stream_constants;
  std::vector<ContractPointer> contract_pointers;
  // mutable_global / static_local sites.
  std::vector<ConcurrencySite> mutable_state;
  // unordered-container members of types with a Step/Run member.
  std::vector<ConcurrencySite> hot_unordered;
};

FileFacts BuildFileFacts(const std::string& display_path, const LexResult& lex);

// The merged cross-file index.
struct Index {
  // Unambiguous name -> unit mapping from typed declarations. A name
  // declared with conflicting unit types, or with both a unit type and a
  // plain numeric type, is dropped entirely.
  std::map<std::string, UnitTag> unit_symbols;
  // All stream constants, sorted by (file, line, name).
  std::vector<StreamConstant> stream_constants;
  // Names of constants declared in the registry header.
  std::set<std::string> registered_streams;
  bool has_registry = false;
  // Names participating in the null-sink contract, with a representative
  // declared type for messages.
  std::map<std::string, std::string> contract_names;
};

Index MergeFacts(const std::vector<FileFacts>& facts);

// Scope classification shared by the fact harvester and the R8/R9 token
// walks: a running brace stack that knows whether each `{` opened a
// namespace, a type, a function body (or control-flow block inside one), or
// a brace initializer.
enum class ScopeKind { kNamespace, kType, kFunction, kInit };

class ScopeTracker {
 public:
  // Feed every token in order; call at token i BEFORE inspecting it.
  void Observe(const std::vector<Token>& tokens, size_t i);

  // True when any enclosing scope is a function body.
  bool InFunction() const;
  // True when every enclosing scope (if any) is a namespace.
  bool AtNamespaceScope() const;
  // Innermost scope, or kNamespace when the stack is empty (file scope).
  ScopeKind Current() const;
  // Identifier of the outermost enclosing function body, unique per function
  // within the file; 0 when not inside a function. Lets callers reset
  // per-function state (e.g. R8's seen-guards set) on function boundaries.
  int FunctionId() const;
  size_t Depth() const { return stack_.size(); }

 private:
  std::vector<ScopeKind> stack_;
  std::vector<int> function_ids_;  // One entry per kFunction scope on stack_.
  int next_function_id_ = 1;
  // Keyword context since the last `;`, `{`, or `}` at the current level.
  bool saw_namespace_ = false;
  bool saw_type_keyword_ = false;
};

}  // namespace faascost::faaslint

#endif  // FAASCOST_TOOLS_FAASLINT_INDEX_H_
