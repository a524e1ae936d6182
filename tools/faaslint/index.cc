#include "tools/faaslint/index.h"

#include <algorithm>

namespace faascost::faaslint {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Unit-bearing type names (src/common/units.h) and their dimensions.
UnitTag TypeTag(std::string_view type) {
  if (type == "MicroSecs") {
    return UnitTag::kMicros;
  }
  if (type == "MegaBytes") {
    return UnitTag::kMb;
  }
  if (type == "Usd") {
    return UnitTag::kUsd;
  }
  return UnitTag::kNone;
}

// Unit-free numeric types (and auto): a declaration with one of these makes
// the name's unit ambiguous across the tree, so it is conflicted out of the
// index rather than carrying a tag it only has elsewhere.
const std::set<std::string, std::less<>> kPlainNumericTypes = {
    "double",  "float",    "int",      "long",     "short",    "unsigned",
    "int8_t",  "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
    "uint32_t", "uint64_t", "size_t",  "ptrdiff_t", "auto",
};

const std::set<std::string, std::less<>> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};

// Null-sink contract types: simulator configs hold these as raw pointers
// defaulting to nullptr, and detached (null) must mean "zero work, zero
// artifact bytes".
bool IsContractType(std::string_view type) {
  return type.find("Sink") != std::string_view::npos || type == "Auditor" ||
         type == "NetworkModel" || type == "TimeSeries";
}

bool IsStreamConstantName(std::string_view name) {
  return name.size() > 1 && name[0] == 'k' &&
         (EndsWith(name, "Stream") || EndsWith(name, "StreamBase"));
}

// Statement keywords that rule out a namespace-scope statement being a
// mutable variable definition.
const std::set<std::string, std::less<>> kImmutableStmtKeywords = {
    "const",    "constexpr", "consteval", "constinit", "using",
    "typedef",  "namespace", "struct",    "class",     "union",
    "enum",     "template",  "friend",    "operator",  "static_assert",
};

// After a declared TYPE token at `i`, skips template arguments and
// reference/const decoration, then returns the index of the declared name if
// the shape matches `TYPE<args>? [*&const]* name <terminator>`, or 0.
// `saw_pointer` reports whether a `*` appeared in the decoration.
size_t DeclaredNameIndex(const std::vector<Token>& tokens, size_t i,
                         bool* saw_pointer) {
  size_t j = i + 1;
  *saw_pointer = false;
  if (j < tokens.size() && IsPunct(tokens[j], "<")) {
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      if (IsPunct(tokens[j], "<")) {
        ++depth;
      } else if (IsPunct(tokens[j], ">")) {
        if (--depth == 0) {
          ++j;
          break;
        }
      } else if (IsPunct(tokens[j], ">>")) {
        depth -= 2;
        if (depth <= 0) {
          ++j;
          break;
        }
      }
    }
  }
  while (j < tokens.size() &&
         (IsPunct(tokens[j], "&") || IsPunct(tokens[j], "*") ||
          (IsIdent(tokens[j]) && tokens[j].text == "const"))) {
    *saw_pointer = *saw_pointer || IsPunct(tokens[j], "*");
    ++j;
  }
  if (j + 1 >= tokens.size() || !IsIdent(tokens[j])) {
    return 0;
  }
  const Token& after = tokens[j + 1];
  if (IsPunct(after, "=") || IsPunct(after, ";") || IsPunct(after, ",") ||
      IsPunct(after, ")") || IsPunct(after, "{") || IsPunct(after, "[")) {
    return j;
  }
  return 0;
}

}  // namespace

std::string_view UnitTagName(UnitTag tag) {
  switch (tag) {
    case UnitTag::kMicros:
      return "us";
    case UnitTag::kMillis:
      return "ms";
    case UnitTag::kSecs:
      return "s";
    case UnitTag::kBytes:
      return "bytes";
    case UnitTag::kKb:
      return "kb";
    case UnitTag::kMb:
      return "mb";
    case UnitTag::kGb:
      return "gb";
    case UnitTag::kGbSecs:
      return "gb_s";
    case UnitTag::kUsd:
      return "usd";
    case UnitTag::kNone:
      break;
  }
  return "untagged";
}

UnitTag SuffixTag(std::string_view name) {
  while (!name.empty() && name.back() == '_') {
    name.remove_suffix(1);  // Member-name convention: `window_us_`.
  }
  if (name == "usd" || name.substr(0, 4) == "usd_" || EndsWith(name, "_usd")) {
    return UnitTag::kUsd;
  }
  if (name == "gb_s" || name == "gb_secs" || name == "gb_seconds") {
    return UnitTag::kGbSecs;
  }
  struct Suffix {
    std::string_view text;
    UnitTag tag;
  };
  // Compound billing dimensions (GB·s) before their plain-time suffixes, so
  // `billable_gb_seconds` is not mis-tagged as seconds.
  static constexpr Suffix kSuffixes[] = {
      {"_gb_s", UnitTag::kGbSecs}, {"_gb_secs", UnitTag::kGbSecs},
      {"_gb_seconds", UnitTag::kGbSecs},
      {"_us", UnitTag::kMicros},   {"_ms", UnitTag::kMillis},
      {"_secs", UnitTag::kSecs},   {"_sec", UnitTag::kSecs},
      {"_seconds", UnitTag::kSecs}, {"_s", UnitTag::kSecs},
      {"_bytes", UnitTag::kBytes}, {"_kb", UnitTag::kKb},
      {"_mb", UnitTag::kMb},       {"_gb", UnitTag::kGb},
  };
  for (const Suffix& s : kSuffixes) {
    if (EndsWith(name, s.text)) {
      return s.tag;
    }
  }
  return UnitTag::kNone;
}

void ScopeTracker::Observe(const std::vector<Token>& tokens, size_t i) {
  const Token& t = tokens[i];
  if (IsIdent(t)) {
    if (t.text == "namespace") {
      saw_namespace_ = true;
    } else if (t.text == "struct" || t.text == "class" || t.text == "union" ||
               t.text == "enum") {
      saw_type_keyword_ = true;
    }
    return;
  }
  if (t.kind != TokenKind::kPunct) {
    return;
  }
  if (t.text == ";") {
    saw_namespace_ = false;
    saw_type_keyword_ = false;
    return;
  }
  if (t.text == "}") {
    if (!stack_.empty()) {
      if (stack_.back() == ScopeKind::kFunction) {
        function_ids_.pop_back();
      }
      stack_.pop_back();
    }
    saw_namespace_ = false;
    saw_type_keyword_ = false;
    return;
  }
  if (t.text != "{") {
    return;
  }
  // Classify the `{`. Walk back over trailing function-signature keywords to
  // find the structural token before it.
  ScopeKind kind = ScopeKind::kInit;
  size_t j = i;
  while (j > 0) {
    const Token& p = tokens[j - 1];
    if (IsIdent(p) && (p.text == "const" || p.text == "noexcept" ||
                       p.text == "override" || p.text == "final" ||
                       p.text == "mutable" || p.text == "try")) {
      --j;
      continue;
    }
    break;
  }
  const Token* prev = j > 0 ? &tokens[j - 1] : nullptr;
  if (prev != nullptr && (IsPunct(*prev, ")") || IsPunct(*prev, "]"))) {
    kind = ScopeKind::kFunction;  // Function body, control block, or lambda.
  } else if (prev != nullptr && IsIdent(*prev) &&
             (prev->text == "else" || prev->text == "do" || prev->text == "try")) {
    kind = ScopeKind::kFunction;
  } else if (saw_namespace_) {
    kind = ScopeKind::kNamespace;
  } else if (saw_type_keyword_) {
    kind = ScopeKind::kType;
  } else if (prev != nullptr &&
             (IsPunct(*prev, "=") || IsPunct(*prev, ",") || IsPunct(*prev, "(") ||
              IsPunct(*prev, "{") || (IsIdent(*prev) && prev->text == "return"))) {
    kind = ScopeKind::kInit;
  } else if (InFunction()) {
    kind = ScopeKind::kFunction;  // Bare block.
  }
  if (kind == ScopeKind::kFunction) {
    function_ids_.push_back(InFunction() ? function_ids_.back() : next_function_id_++);
  }
  stack_.push_back(kind);
  saw_namespace_ = false;
  saw_type_keyword_ = false;
}

bool ScopeTracker::InFunction() const { return !function_ids_.empty(); }

bool ScopeTracker::AtNamespaceScope() const {
  for (const ScopeKind k : stack_) {
    if (k != ScopeKind::kNamespace) {
      return false;
    }
  }
  return true;
}

ScopeKind ScopeTracker::Current() const {
  return stack_.empty() ? ScopeKind::kNamespace : stack_.back();
}

int ScopeTracker::FunctionId() const {
  return function_ids_.empty() ? 0 : function_ids_.back();
}

FileFacts BuildFileFacts(const std::string& display_path, const LexResult& lex) {
  FileFacts facts;
  facts.path = display_path;
  const std::vector<Token>& tokens = lex.tokens;
  const bool is_registry = EndsWith(display_path, "stream_registry.h");

  ScopeTracker scope;
  // Pending namespace-scope statement (mutable-global candidate): tokens seen
  // at pure namespace scope since the last statement boundary.
  std::vector<const Token*> stmt;
  // Innermost type scopes, tracking hot-path members (parallel to the
  // tracker's type scopes).
  struct TypeScope {
    size_t depth;
    bool has_hot_method = false;
    std::vector<std::pair<std::string, int>> unordered_members;
  };
  std::vector<TypeScope> type_scopes;

  const auto flush_stmt = [&]() {
    if (stmt.size() < 2) {
      stmt.clear();
      return;
    }
    bool skip = !IsIdent(*stmt.front());
    bool has_paren = false;
    for (const Token* t : stmt) {
      if (IsIdent(*t) && kImmutableStmtKeywords.count(t->text) > 0) {
        skip = true;
      }
      has_paren = has_paren || IsPunct(*t, "(");
    }
    if (skip || has_paren) {
      stmt.clear();
      return;
    }
    // Name: last identifier before `=` / `[` / end.
    const Token* name = nullptr;
    for (const Token* t : stmt) {
      if (IsPunct(*t, "=") || IsPunct(*t, "[")) {
        break;
      }
      if (IsIdent(*t)) {
        name = t;
      }
    }
    if (name != nullptr && name != stmt.front()) {
      facts.mutable_state.push_back(
          {display_path, name->line, "mutable_global", name->text,
           "namespace-scope variable without const/constexpr"});
    }
    stmt.clear();
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const bool was_namespace_scope = scope.AtNamespaceScope();
    const size_t depth_before = scope.Depth();
    scope.Observe(tokens, i);
    const Token& t = tokens[i];

    // Maintain the namespace-scope statement accumulator. Tokens inside
    // nested scopes (function bodies, type bodies, brace initializers) are
    // not part of the namespace-level statement.
    if (t.kind == TokenKind::kPunct && t.text == "{") {
      if (scope.Current() == ScopeKind::kType) {
        type_scopes.push_back({scope.Depth(), false, {}});
      }
      if (was_namespace_scope && scope.Current() != ScopeKind::kInit) {
        stmt.clear();  // Definition header (namespace/type/function), not a var.
      }
      continue;
    }
    if (t.kind == TokenKind::kPunct && t.text == "}") {
      if (!type_scopes.empty() && type_scopes.back().depth == depth_before) {
        const TypeScope& ts = type_scopes.back();
        if (ts.has_hot_method) {
          for (const auto& [name, line] : ts.unordered_members) {
            facts.hot_unordered.push_back(
                {display_path, line, "unordered_hot_member", name,
                 "unordered container member of a type with a Step/Run hot path"});
          }
        }
        type_scopes.pop_back();
      }
      if (scope.AtNamespaceScope()) {
        stmt.clear();
      }
      continue;
    }
    if (scope.AtNamespaceScope() && was_namespace_scope) {
      if (t.kind == TokenKind::kPunct && t.text == ";") {
        flush_stmt();
      } else {
        stmt.push_back(&t);
      }
    }

    if (!IsIdent(t)) {
      continue;
    }

    // Hot-path method declared at type scope.
    if (!type_scopes.empty() && scope.Current() == ScopeKind::kType &&
        (t.text == "Step" || t.text == "Run" || t.text == "RunFor") &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(")) {
      type_scopes.back().has_hot_method = true;
    }

    // Mutable function-local static.
    if (t.text == "static" && scope.InFunction()) {
      bool is_const = false;
      const Token* name = nullptr;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        if (IsPunct(tokens[j], ";") || IsPunct(tokens[j], "{") ||
            IsPunct(tokens[j], "(") || IsPunct(tokens[j], "=")) {
          break;
        }
        if (IsIdent(tokens[j])) {
          if (tokens[j].text == "const" || tokens[j].text == "constexpr") {
            is_const = true;
          } else {
            name = &tokens[j];
          }
        }
      }
      if (!is_const && name != nullptr) {
        facts.mutable_state.push_back(
            {display_path, t.line, "static_local", name->text,
             "mutable function-local static"});
      }
    }

    // Stream constant declaration: `k*Stream = <literal>`.
    if (IsStreamConstantName(t.text) && i + 2 < tokens.size() &&
        IsPunct(tokens[i + 1], "=")) {
      StreamConstant c;
      c.name = t.text;
      c.file = display_path;
      c.line = t.line;
      c.registered = is_registry;
      uint64_t value = 0;
      if (tokens[i + 2].kind == TokenKind::kNumber &&
          i + 3 < tokens.size() && IsPunct(tokens[i + 3], ";") &&
          NumberValue(tokens[i + 2], &value)) {
        c.value = value;
        c.has_value = true;
      }
      facts.stream_constants.push_back(std::move(c));
    }

    // Declarations: unit-bearing types, plain numeric types, contract
    // pointer types, and unordered-container members.
    const UnitTag type_tag = TypeTag(t.text);
    const bool plain = kPlainNumericTypes.count(t.text) > 0;
    const bool contract = IsContractType(t.text);
    const bool unordered = kUnorderedContainers.count(t.text) > 0;
    if (type_tag == UnitTag::kNone && !plain && !contract && !unordered) {
      continue;
    }
    bool saw_pointer = false;
    const size_t name_idx = DeclaredNameIndex(tokens, i, &saw_pointer);
    if (name_idx == 0) {
      continue;
    }
    const Token& name = tokens[name_idx];
    if (type_tag != UnitTag::kNone && !saw_pointer) {
      facts.typed_decls.push_back({name.text, name.line, type_tag});
    } else if (plain && !saw_pointer) {
      facts.untagged_decl_names.insert(name.text);
    }
    if (contract && saw_pointer) {
      facts.contract_pointers.push_back({name.text, t.text, display_path, name.line});
    }
    if (unordered && !type_scopes.empty() && scope.Current() == ScopeKind::kType) {
      type_scopes.back().unordered_members.emplace_back(name.text, name.line);
    }
  }
  return facts;
}

Index MergeFacts(const std::vector<FileFacts>& facts) {
  Index index;
  std::set<std::string> conflicted;
  for (const FileFacts& f : facts) {
    if (EndsWith(f.path, "stream_registry.h")) {
      index.has_registry = true;
    }
    for (const UnitDecl& d : f.typed_decls) {
      if (conflicted.count(d.name) > 0) {
        continue;
      }
      const auto it = index.unit_symbols.find(d.name);
      if (it == index.unit_symbols.end()) {
        index.unit_symbols.emplace(d.name, d.type_tag);
      } else if (it->second != d.type_tag) {
        index.unit_symbols.erase(it);
        conflicted.insert(d.name);
      }
    }
    for (const StreamConstant& c : f.stream_constants) {
      if (c.registered) {
        index.registered_streams.insert(c.name);
      }
      index.stream_constants.push_back(c);
    }
    for (const ContractPointer& p : f.contract_pointers) {
      index.contract_names.emplace(p.name, p.type);
    }
  }
  for (const FileFacts& f : facts) {
    for (const std::string& name : f.untagged_decl_names) {
      index.unit_symbols.erase(name);
    }
  }
  std::sort(index.stream_constants.begin(), index.stream_constants.end(),
            [](const StreamConstant& a, const StreamConstant& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.name < b.name;
            });
  return index;
}

}  // namespace faascost::faaslint
