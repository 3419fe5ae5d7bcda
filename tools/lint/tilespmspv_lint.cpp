// tilespmspv_lint — repo-specific invariant analyzer.
//
// Generic compilers and clang-tidy cannot see this repo's conventions; this
// tool analyzes the tree and enforces the ones that are load-bearing
// (see docs/STATIC_ANALYSIS.md for the rule catalogue and the annotation
// syntax). It runs in two stages: a shared lexer/scope-tracker front end
// (tokenizer, function-body extraction, member-access-chain keys) feeding
// per-rule passes. Rules:
//
//   simd-twin         every kernel defined under a SIMD-conditional
//                     preprocessor region in util/simd.hpp or
//                     util/bitkernels.hpp has an unconditionally compiled
//                     `*_scalar` twin in the same file
//   twin-fuzz         every twinned kernel pair is exercised against each
//                     other by a tests/*fuzz* file
//   counter-doc       obs counter enum, counter_name() switch, and the
//                     docs/OBSERVABILITY.md counter table stay in sync
//   validator-fields  each formats/validate.hpp validator mentions every
//                     field of the struct it validates
//   hot-path          no heap allocation, container growth, or
//                     std::function inside `// lint:hot-path` regions
//   raw-atomic        no raw std::atomic outside parallel/atomics.hpp
//   core-atomic-add   no atomic_add under src/core: a float sum whose
//                     order follows thread timing is not bitwise
//                     reproducible
//   core-nested-vector no std::vector<std::vector<...>> under src/core:
//                     per-task lists in one such vector share cache lines
//                     through their headers; use detail::PairList
//   include-hygiene   no <iostream> in headers under src/tile, src/core,
//                     src/bfs
//   mapped-taint      flow-aware: values originating in mmapped tile-file
//                     headers/section tables, stream reads, or MatrixMarket
//                     parses (src/formats/, src/serve/) must pass a
//                     recognized gate before being used as an index, loop
//                     bound, allocation size, or memcpy/reinterpret_cast
//                     extent
//   shared-write      flow-aware: inside parallel_for / parallel_ranges /
//                     parallel_shard_ranges lambda bodies, writes through
//                     reference-captured state must be per-slot
//                     disambiguated, lock-protected, or annotated
//   lock-discipline   spin_lock/spin_unlock balance per scope; no early
//                     return/throw while a spin lock is held
//
// Suppressions: `// lint:allow(<rule>)` on the offending line or the line
// directly above waives that rule for that line. `// lint:gated(<why>)`
// marks a value as validated elsewhere for mapped-taint, and
// `// lint:owned(<invariant>)` marks a parallel-region write as
// race-free for shared-write — both REQUIRE a non-empty reason between
// the parentheses. A line ENDING with `// lint:hot-path` marks the next
// `{...}` block as a hot-path region; a line ending with
// `// lint:hot-path-file` marks the whole file. Markers are end-of-line
// anchored so prose mentions (like this comment) do not open regions.
//
// Modes (mirroring tools/tilespmspv_validate):
//   tilespmspv_lint --root DIR    lint the tree rooted at DIR (default .)
//   tilespmspv_lint --suite DIR   self-check against the seeded-violation
//                                 fixtures under DIR
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;  // root-relative path
  int line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string rel;           // root-relative path, '/' separators
  std::string raw;           // file contents as read
  std::string code;          // comments and string contents blanked
  std::vector<int> line_at;  // line_at[i] = 1-based line of raw[i]
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Replaces comment bodies and string/char-literal contents with spaces,
/// preserving length and newlines so offsets and line numbers survive.
std::string strip_comments_and_strings(const std::string& s) {
  std::string out = s;
  enum class St { Code, Line, Block, Str, Chr } st = St::Code;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char n = i + 1 < s.size() ? s[i + 1] : '\0';
    switch (st) {
      case St::Code:
        if (c == '/' && n == '/') {
          st = St::Line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::Block;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::Str;
        } else if (c == '\'') {
          st = St::Chr;
        }
        break;
      case St::Line:
        if (c == '\n')
          st = St::Code;
        else
          out[i] = ' ';
        break;
      case St::Block:
        if (c == '*' && n == '/') {
          st = St::Code;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::Str:
        if (c == '\\' && n != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::Chr:
        if (c == '\\' && n != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::Code;
        } else {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

SourceFile load_file(const fs::path& root, const fs::path& p) {
  SourceFile f;
  f.rel = fs::relative(p, root).generic_string();
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  f.raw = ss.str();
  f.code = strip_comments_and_strings(f.raw);
  f.line_at.resize(f.raw.size() + 1);
  int line = 1;
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    f.line_at[i] = line;
    if (f.raw[i] == '\n') ++line;
  }
  f.line_at[f.raw.size()] = line;
  return f;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

/// True when `line` (1-based) or the line above carries
/// `lint:allow(<rule>)` in the raw text.
bool allowed(const std::vector<std::string>& raw_lines, int line,
             const std::string& rule) {
  const std::string tag = "lint:allow(" + rule + ")";
  for (int l = std::max(1, line - 1); l <= line; ++l) {
    if (l <= static_cast<int>(raw_lines.size()) &&
        raw_lines[l - 1].find(tag) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// True when `line`, trimmed of trailing whitespace, ends with `marker`.
/// Anchoring to end-of-line keeps prose mentions of a marker (docs, the
/// rule catalogue above, string literals in this very file) from opening
/// hot-path regions.
bool ends_with_marker(const std::string& line, const std::string& marker) {
  const std::size_t e = line.find_last_not_of(" \t\r");
  if (e == std::string::npos) return false;
  const std::size_t len = e + 1;
  return len >= marker.size() &&
         line.compare(len - marker.size(), marker.size(), marker) == 0;
}

bool contains_word(const std::string& s, const std::string& w) {
  std::size_t pos = 0;
  while ((pos = s.find(w, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + w.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

std::size_t find_word(const std::string& s, const std::string& w,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = s.find(w, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + w.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

/// Position of the brace matching the `{` at `open` in blanked code, or
/// npos when unbalanced.
std::size_t match_brace(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------
// Function-definition scanning (for the twin rules). Good enough for the
// kernel headers' style: free functions whose parameter list is directly
// followed by `{`.
// ---------------------------------------------------------------------

struct FuncDef {
  std::string name;
  int line = 0;
  bool simd_conditional = false;  // defined under a SIMD #if tier
};

const std::set<std::string>& keywords() {
  static const std::set<std::string> k = {
      "if",     "for",    "while",   "switch", "return", "sizeof",
      "catch",  "static", "assert",  "defined", "alignas", "alignof",
      "decltype", "static_assert", "constexpr", "operator"};
  return k;
}

/// True when the preprocessor condition selects a SIMD tier.
bool simd_condition(const std::string& cond) {
  return cond.find("TILESPMSPV_SIMD_") != std::string::npos ||
         cond.find("__AVX2__") != std::string::npos ||
         cond.find("__SSE2__") != std::string::npos ||
         cond.find("__FMA__") != std::string::npos;
}

std::vector<FuncDef> scan_function_defs(const SourceFile& f) {
  std::vector<FuncDef> defs;
  const std::vector<std::string> lines = split_lines(f.code);
  // Per-line SIMD-conditional flag from the preprocessor stack. A group
  // counts as SIMD-conditional once any of its branch conditions names a
  // tier macro — the #else branch of a tier split is still tier-selected.
  std::vector<bool> line_simd(lines.size() + 2, false);
  std::vector<bool> stack;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    std::string t = lines[li];
    const std::size_t h = t.find_first_not_of(" \t");
    bool in_simd = false;
    if (h != std::string::npos && t[h] == '#') {
      const std::string d = t.substr(h + 1);
      if (d.rfind("if", 0) == 0) {
        stack.push_back(simd_condition(d));
      } else if (d.rfind("elif", 0) == 0 && !stack.empty()) {
        stack.back() = stack.back() || simd_condition(d);
      } else if (d.rfind("endif", 0) == 0 && !stack.empty()) {
        stack.pop_back();
      }
      // #else keeps the group's flag.
    }
    for (bool b : stack) in_simd = in_simd || b;
    line_simd[li + 1] = in_simd;  // 1-based
  }

  const std::string& c = f.code;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c[i] != '(') continue;
    // Identifier directly before '('.
    std::size_t e = i;
    while (e > 0 && std::isspace(static_cast<unsigned char>(c[e - 1]))) --e;
    std::size_t b = e;
    while (b > 0 && ident_char(c[b - 1])) --b;
    if (b == e) continue;
    const std::string name = c.substr(b, e - b);
    if (keywords().count(name)) continue;
    if (b > 0 && (c[b - 1] == '.' || c[b - 1] == ':' ||
                  (b > 1 && c[b - 2] == '-' && c[b - 1] == '>'))) {
      continue;  // member/qualified call, not a definition name
    }
    // Matching ')' then optional qualifiers then '{' => definition.
    int pd = 0;
    std::size_t j = i;
    for (; j < c.size(); ++j) {
      if (c[j] == '(') ++pd;
      if (c[j] == ')' && --pd == 0) break;
    }
    if (j >= c.size()) continue;
    std::size_t k = j + 1;
    while (k < c.size()) {
      while (k < c.size() && std::isspace(static_cast<unsigned char>(c[k])))
        ++k;
      if (c.compare(k, 5, "const") == 0 && !ident_char(c[k + 5])) {
        k += 5;
        continue;
      }
      if (c.compare(k, 8, "noexcept") == 0) {
        k += 8;
        continue;
      }
      break;
    }
    if (k >= c.size() || c[k] != '{') continue;
    FuncDef d;
    d.name = name;
    d.line = f.line_at[b];
    d.simd_conditional = line_simd[static_cast<std::size_t>(d.line)];
    defs.push_back(d);
  }
  return defs;
}

// ---------------------------------------------------------------------
// The linter proper.
// ---------------------------------------------------------------------

struct Tree {
  fs::path root;
  std::vector<SourceFile> files;  // all .hpp/.cpp under src/, tools/, tests/

  const SourceFile* find(const std::string& rel) const {
    for (const SourceFile& f : files) {
      if (f.rel == rel) return &f;
    }
    return nullptr;
  }
};

Tree load_tree(const fs::path& root) {
  Tree t;
  t.root = root;
  for (const char* dir : {"src", "tools", "tests"}) {
    const fs::path d = root / dir;
    if (!fs::exists(d)) continue;
    for (const auto& ent : fs::recursive_directory_iterator(d)) {
      if (!ent.is_regular_file()) continue;
      const std::string ext = ent.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc")
        continue;
      // The linter's own fixture trees are inputs, not part of the tree.
      const std::string rel = fs::relative(ent.path(), root).generic_string();
      if (rel.rfind("tools/lint/fixtures/", 0) == 0) continue;
      t.files.push_back(load_file(root, ent.path()));
    }
  }
  std::sort(t.files.begin(), t.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return t;
}

void rule_simd_twin(const Tree& t, std::vector<Violation>& out) {
  for (const char* relc : {"src/util/simd.hpp", "src/util/bitkernels.hpp"}) {
    const SourceFile* f = t.find(relc);
    if (!f) continue;
    const std::vector<FuncDef> defs = scan_function_defs(*f);
    const std::vector<std::string> raw_lines = split_lines(f->raw);
    std::set<std::string> all;
    for (const FuncDef& d : defs) all.insert(d.name);
    std::set<std::string> reported;
    for (const FuncDef& d : defs) {
      if (!d.simd_conditional) continue;
      if (d.name.size() > 7 &&
          d.name.compare(d.name.size() - 7, 7, "_scalar") == 0)
        continue;
      if (all.count(d.name + "_scalar")) continue;
      if (allowed(raw_lines, d.line, "simd-twin")) continue;
      if (!reported.insert(d.name).second) continue;
      out.push_back({f->rel, d.line, "simd-twin",
                     "SIMD-tier kernel '" + d.name +
                         "' has no in-binary '" + d.name +
                         "_scalar' twin in this file"});
    }
  }
}

void rule_twin_fuzz(const Tree& t, std::vector<Violation>& out) {
  // Collect the fuzz tests once.
  std::vector<const SourceFile*> fuzz;
  for (const SourceFile& f : t.files) {
    if (f.rel.rfind("tests/", 0) == 0 &&
        f.rel.find("fuzz") != std::string::npos) {
      fuzz.push_back(&f);
    }
  }
  for (const char* relc : {"src/util/simd.hpp", "src/util/bitkernels.hpp"}) {
    const SourceFile* f = t.find(relc);
    if (!f) continue;
    const std::vector<FuncDef> defs = scan_function_defs(*f);
    const std::vector<std::string> raw_lines = split_lines(f->raw);
    std::set<std::string> all;
    for (const FuncDef& d : defs) all.insert(d.name);
    std::set<std::string> checked;
    for (const FuncDef& d : defs) {
      if (!all.count(d.name + "_scalar")) continue;  // not a twinned kernel
      if (!checked.insert(d.name).second) continue;
      if (allowed(raw_lines, d.line, "twin-fuzz")) continue;
      bool active = false, scalar = false;
      for (const SourceFile* tf : fuzz) {
        if (contains_word(tf->code, d.name)) active = true;
        if (contains_word(tf->code, d.name + "_scalar")) scalar = true;
      }
      if (active && scalar) continue;
      out.push_back({f->rel, d.line, "twin-fuzz",
                     "twinned kernel '" + d.name + "' / '" + d.name +
                         "_scalar' is not differentially exercised by any "
                         "tests/*fuzz* file"});
    }
  }
}

void rule_counter_doc(const Tree& t, std::vector<Violation>& out) {
  const SourceFile* hpp = t.find("src/obs/counters.hpp");
  const SourceFile* cpp = t.find("src/obs/counters.cpp");
  if (!hpp || !cpp) return;  // layer absent (e.g. minimal fixtures)

  // Enumerators of `enum class Counter`.
  std::vector<std::pair<std::string, int>> enums;  // (kName, line)
  std::size_t ep = hpp->code.find("enum class Counter");
  if (ep == std::string::npos) return;
  std::size_t open = hpp->code.find('{', ep);
  std::size_t close = open == std::string::npos
                          ? std::string::npos
                          : match_brace(hpp->code, open);
  if (close == std::string::npos) return;
  for (std::size_t i = open; i < close; ++i) {
    if (hpp->code[i] != 'k' || (i > 0 && ident_char(hpp->code[i - 1])))
      continue;
    std::size_t e = i;
    while (e < close && ident_char(hpp->code[e])) ++e;
    const std::string name = hpp->code.substr(i, e - i);
    if (name != "kCount") enums.emplace_back(name, hpp->line_at[i]);
    i = e;
  }

  // counter_name() switch: Counter::kX ... return "x".
  std::map<std::string, std::string> names;  // kX -> "x"
  const std::string& cc = cpp->code;
  const std::string& craw = cpp->raw;
  std::size_t pos = 0;
  while ((pos = cc.find("Counter::k", pos)) != std::string::npos) {
    std::size_t b = pos + 9;  // at 'k'
    std::size_t e = b;
    while (e < cc.size() && ident_char(cc[e])) ++e;
    const std::string enumerator = cc.substr(b, e - b);
    // The string literal is blanked in `code`; read it from raw.
    const std::size_t q1 = craw.find('"', e);
    const std::size_t ret = cc.find("return", e);
    const std::size_t next_case = cc.find("Counter::k", e);
    if (q1 != std::string::npos && ret != std::string::npos &&
        (next_case == std::string::npos || q1 < next_case)) {
      const std::size_t q2 = craw.find('"', q1 + 1);
      if (q2 != std::string::npos) {
        names[enumerator] = craw.substr(q1 + 1, q2 - q1 - 1);
      }
    }
    pos = e;
  }

  const std::vector<std::string> hpp_raw = split_lines(hpp->raw);
  // Docs table.
  const fs::path docp = t.root / "docs" / "OBSERVABILITY.md";
  std::string doc;
  if (fs::exists(docp)) {
    std::ifstream in(docp, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    doc = ss.str();
  }

  for (const auto& [en, line] : enums) {
    if (allowed(hpp_raw, line, "counter-doc")) continue;
    const auto it = names.find(en);
    if (it == names.end()) {
      out.push_back({cpp->rel, 1, "counter-doc",
                     "counter enumerator '" + en +
                         "' has no case in counter_name()"});
      continue;
    }
    if (doc.find("`" + it->second + "`") == std::string::npos) {
      out.push_back({hpp->rel, line, "counter-doc",
                     "counter '" + it->second +
                         "' is not documented in docs/OBSERVABILITY.md"});
    }
  }

  // Stale doc entries: first-column backticked tokens of the counter
  // table must all be live counters.
  std::set<std::string> live;
  for (const auto& [en, nm] : names) live.insert(nm);
  const std::vector<std::string> doc_lines = split_lines(doc);
  bool in_table = false;
  for (std::size_t li = 0; li < doc_lines.size(); ++li) {
    const std::string& l = doc_lines[li];
    if (l.find("| counter |") != std::string::npos) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (l.empty() || l[0] != '|') {
      in_table = false;
      continue;
    }
    const std::size_t second = l.find('|', 1);
    if (second == std::string::npos) continue;
    const std::string first_col = l.substr(0, second);
    std::size_t q = 0;
    while ((q = first_col.find('`', q)) != std::string::npos) {
      const std::size_t q2 = first_col.find('`', q + 1);
      if (q2 == std::string::npos) break;
      const std::string tok = first_col.substr(q + 1, q2 - q - 1);
      if (!tok.empty() && tok != "counter" && !live.count(tok)) {
        out.push_back({"docs/OBSERVABILITY.md", static_cast<int>(li + 1),
                       "counter-doc",
                       "documented counter '" + tok +
                           "' does not exist in obs/counters.cpp"});
      }
      q = q2 + 1;
    }
  }
}

/// snake_case -> CamelCase ("packed_tile_matrix" -> "PackedTileMatrix").
std::string camel(const std::string& snake) {
  std::string out;
  bool up = true;
  for (char c : snake) {
    if (c == '_') {
      up = true;
    } else {
      out += up ? static_cast<char>(std::toupper(c)) : c;
      up = false;
    }
  }
  return out;
}

struct StructDef {
  const SourceFile* file = nullptr;
  std::vector<std::pair<std::string, int>> fields;  // (name, line)
};

/// Finds `struct <name>` in the tree and token-scans its data members.
bool find_struct(const Tree& t, const std::string& name, StructDef& sd) {
  for (const SourceFile& f : t.files) {
    const std::size_t p = find_word(f.code, "struct " + name, 0);
    std::size_t sp = std::string::npos;
    if (p != std::string::npos) {
      sp = p;
    } else {
      // Allow whitespace variations: locate "struct" then the name.
      std::size_t q = 0;
      while ((q = find_word(f.code, "struct", q)) != std::string::npos) {
        std::size_t r = q + 6;
        while (r < f.code.size() &&
               std::isspace(static_cast<unsigned char>(f.code[r])))
          ++r;
        if (f.code.compare(r, name.size(), name) == 0 &&
            !ident_char(f.code[r + name.size()])) {
          sp = q;
          break;
        }
        q += 6;
      }
    }
    if (sp == std::string::npos) continue;
    const std::size_t open = f.code.find('{', sp);
    if (open == std::string::npos) continue;
    const std::size_t close = match_brace(f.code, open);
    if (close == std::string::npos) continue;
    sd.file = &f;
    // Scan statements at struct depth 1.
    int depth = 0;
    std::string stmt;
    std::size_t stmt_start = open + 1;
    for (std::size_t i = open; i <= close; ++i) {
      const char c = f.code[i];
      if (c == '{') {
        ++depth;
        if (depth == 1) stmt_start = i + 1;
        stmt.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        stmt.clear();
        stmt_start = i + 1;
        continue;
      }
      if (depth != 1) continue;
      if (c == ';') {
        // A data member: no parens (functions), not an alias/assert.
        std::string s = stmt;
        const bool has_paren = s.find('(') != std::string::npos;
        const bool skip = contains_word(s, "using") ||
                          contains_word(s, "typedef") ||
                          contains_word(s, "friend") ||
                          contains_word(s, "static");
        if (!has_paren && !skip) {
          // Identifier before '=' (or end).
          const std::size_t eq = s.find('=');
          std::string head = eq == std::string::npos ? s : s.substr(0, eq);
          std::size_t e = head.size();
          while (e > 0 &&
                 std::isspace(static_cast<unsigned char>(head[e - 1])))
            --e;
          std::size_t b = e;
          while (b > 0 && ident_char(head[b - 1])) --b;
          if (b < e) {
            const std::string fieldname = head.substr(b, e - b);
            if (!fieldname.empty() &&
                !std::isdigit(static_cast<unsigned char>(fieldname[0]))) {
              sd.fields.emplace_back(fieldname, f.line_at[stmt_start]);
            }
          }
        }
        stmt.clear();
        stmt_start = i + 1;
        continue;
      }
      if (stmt.empty() &&
          std::isspace(static_cast<unsigned char>(c))) {
        stmt_start = i + 1;
        continue;
      }
      stmt += c;
    }
    return true;
  }
  return false;
}

void rule_validator_fields(const Tree& t, std::vector<Violation>& out) {
  const SourceFile* v = t.find("src/formats/validate.hpp");
  if (!v) return;
  const std::vector<std::string> vraw = split_lines(v->raw);
  std::size_t pos = 0;
  while ((pos = find_word(v->code, "ValidationResult", pos)) !=
         std::string::npos) {
    std::size_t b = pos + 16;
    while (b < v->code.size() &&
           std::isspace(static_cast<unsigned char>(v->code[b])))
      ++b;
    std::size_t e = b;
    while (e < v->code.size() && ident_char(v->code[e])) ++e;
    const std::string fname = v->code.substr(b, e - b);
    pos = e;
    if (fname.rfind("validate_", 0) != 0) continue;
    const std::size_t paren = v->code.find('(', e);
    if (paren == std::string::npos || v->code[e] != '(') continue;
    const std::size_t open = v->code.find('{', paren);
    if (open == std::string::npos) continue;
    const std::size_t close = match_brace(v->code, open);
    if (close == std::string::npos) continue;
    const std::string body = v->code.substr(open, close - open);
    const int fline = v->line_at[b];
    if (allowed(vraw, fline, "validator-fields")) {
      pos = close;
      continue;
    }
    const std::string struct_name = camel(fname.substr(9));
    StructDef sd;
    if (!find_struct(t, struct_name, sd)) {
      pos = close;
      continue;  // duck-typed helper without a concrete struct
    }
    const std::vector<std::string> sraw = split_lines(sd.file->raw);
    for (const auto& [field, fldline] : sd.fields) {
      if (contains_word(body, field)) continue;
      if (allowed(sraw, fldline, "validator-fields")) continue;
      out.push_back({v->rel, fline, "validator-fields",
                     fname + "() never mentions field '" + field + "' of " +
                         struct_name + " (" + sd.file->rel + ":" +
                         std::to_string(fldline) + ")"});
    }
    pos = close;
  }
}

void rule_hot_path(const Tree& t, std::vector<Violation>& out) {
  static const char* kBanned[] = {
      "new",       "malloc",       "calloc",  "realloc",     "push_back",
      "emplace_back", "emplace",   "resize",  "reserve",     "insert",
      "assign",    "make_unique", "make_shared", "shrink_to_fit"};
  for (const SourceFile& f : t.files) {
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    // Offset of each raw line's first character, for mapping a marker line
    // to the block that follows it.
    std::vector<std::size_t> line_start(raw_lines.size() + 1, 0);
    {
      std::size_t off = 0;
      for (std::size_t li = 0; li < raw_lines.size(); ++li) {
        line_start[li] = off;
        off += raw_lines[li].size() + 1;
      }
      line_start[raw_lines.size()] = f.raw.size();
    }
    std::vector<std::pair<std::size_t, std::size_t>> regions;
    for (std::size_t li = 0; li < raw_lines.size(); ++li) {
      if (ends_with_marker(raw_lines[li], "// lint:hot-path-file")) {
        regions.emplace_back(0, f.code.size());
      } else if (ends_with_marker(raw_lines[li], "// lint:hot-path")) {
        const std::size_t open = f.code.find('{', line_start[li]);
        if (open != std::string::npos) {
          const std::size_t close = match_brace(f.code, open);
          if (close != std::string::npos) regions.emplace_back(open, close);
        }
      }
    }
    for (const auto& [rb, re] : regions) {
      for (const char* w : kBanned) {
        std::size_t p = rb;
        while ((p = find_word(f.code, w, p)) != std::string::npos &&
               p < re) {
          const int line = f.line_at[p];
          if (!allowed(raw_lines, line, "hot-path")) {
            out.push_back({f.rel, line, "hot-path",
                           std::string("'") + w +
                               "' inside a lint:hot-path region (steady "
                               "state must not allocate or type-erase)"});
          }
          p += std::string(w).size();
        }
      }
      // std::function is two tokens; check separately.
      std::size_t p = rb;
      while ((p = f.code.find("std::function", p)) != std::string::npos &&
             p < re) {
        const int line = f.line_at[p];
        if (!allowed(raw_lines, line, "hot-path")) {
          out.push_back({f.rel, line, "hot-path",
                         "'std::function' inside a lint:hot-path region "
                         "(steady state must not allocate or type-erase)"});
        }
        p += 13;
      }
    }
  }
}

void rule_raw_atomic(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    if (f.rel.rfind("src/", 0) != 0) continue;
    if (f.rel == "src/parallel/atomics.hpp") continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    std::size_t p = 0;
    while ((p = f.code.find("std::atomic", p)) != std::string::npos) {
      const int line = f.line_at[p];
      if (!allowed(raw_lines, line, "raw-atomic")) {
        out.push_back({f.rel, line, "raw-atomic",
                       "raw std::atomic outside parallel/atomics.hpp — use "
                       "the atomic_* helpers or annotate why not"});
      }
      p += 11;
    }
  }
}

void rule_core_atomic_add(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    if (f.rel.rfind("src/core/", 0) != 0) continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    std::size_t p = 0;
    while ((p = find_word(f.code, "atomic_add", p)) != std::string::npos) {
      const int line = f.line_at[p];
      if (!allowed(raw_lines, line, "core-atomic-add")) {
        out.push_back({f.rel, line, "core-atomic-add",
                       "atomic_add under src/core — its summation order "
                       "follows thread timing; combine per-range partial "
                       "results in range order instead"});
      }
      p += 10;
    }
  }
}

void rule_core_nested_vector(const Tree& t, std::vector<Violation>& out) {
  static const std::string kNested = "std::vector<std::vector<";
  for (const SourceFile& f : t.files) {
    if (f.rel.rfind("src/core/", 0) != 0) continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    std::size_t p = 0;
    while ((p = f.code.find(kNested, p)) != std::string::npos) {
      const int line = f.line_at[p];
      if (!allowed(raw_lines, line, "core-nested-vector")) {
        out.push_back({f.rel, line, "core-nested-vector",
                       "nested std::vector under src/core — the inner "
                       "vectors' headers share cache lines, so tasks filling "
                       "neighbouring lists false-share; use a "
                       "std::vector<detail::PairList<T>>"});
      }
      p += kNested.size();
    }
  }
}

void rule_include_hygiene(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    const bool guarded_dir = f.rel.rfind("src/tile/", 0) == 0 ||
                             f.rel.rfind("src/core/", 0) == 0 ||
                             f.rel.rfind("src/bfs/", 0) == 0;
    if (!guarded_dir) continue;
    if (f.rel.size() < 4 || f.rel.compare(f.rel.size() - 4, 4, ".hpp") != 0)
      continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    const std::vector<std::string> lines = split_lines(f.code);
    for (std::size_t li = 0; li < lines.size(); ++li) {
      if (lines[li].find("#include <iostream>") == std::string::npos)
        continue;
      const int line = static_cast<int>(li + 1);
      if (!allowed(raw_lines, line, "include-hygiene")) {
        out.push_back({f.rel, line, "include-hygiene",
                       "<iostream> in a hot-layer header (stream state + "
                       "static init cost in every TU); use <cstdio> in a "
                       ".cpp instead"});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Stage-1 front end: tokenizer + scope utilities shared by the
// flow-aware rules (mapped-taint, shared-write, lock-discipline).
// ---------------------------------------------------------------------

struct Tok {
  enum Kind { Ident, Num, Punct };
  Kind kind = Punct;
  std::string text;
  std::size_t pos = 0;  // offset into SourceFile::code
};

std::vector<Tok> tokenize(const std::string& c, std::size_t b,
                          std::size_t e) {
  static const char* kMulti[] = {"<<=", ">>=", "->*", "::", "->", "==", "!=",
                                 "<=",  ">=",  "&&",  "||", "++", "--", "+=",
                                 "-=",  "*=",  "/=",  "%=", "&=", "|=", "^=",
                                 "<<",  ">>"};
  std::vector<Tok> out;
  std::size_t i = b;
  while (i < e) {
    const char ch = c[i];
    if (std::isspace(static_cast<unsigned char>(ch))) {
      ++i;
      continue;
    }
    if (ch == '#') {  // preprocessor directive: opaque to the rules
      while (i < e && c[i] != '\n') ++i;
      continue;
    }
    Tok t;
    t.pos = i;
    if (ident_char(ch) && !std::isdigit(static_cast<unsigned char>(ch))) {
      std::size_t j = i;
      while (j < e && ident_char(c[j])) ++j;
      t.kind = Tok::Ident;
      t.text = c.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(ch))) {
      std::size_t j = i;
      while (j < e && (ident_char(c[j]) || c[j] == '.')) ++j;
      t.kind = Tok::Num;
      t.text = c.substr(i, j - i);
      i = j;
    } else {
      t.kind = Tok::Punct;
      bool matched = false;
      for (const char* w : kMulti) {
        const std::size_t n = std::strlen(w);
        if (c.compare(i, n, w) == 0) {
          t.text = w;
          i += n;
          matched = true;
          break;
        }
      }
      if (!matched) {
        t.text = std::string(1, ch);
        ++i;
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// Index of the token matching the opener at `i` ("(", "[", or "{"), or
/// toks.size() when unbalanced.
std::size_t tok_match(const std::vector<Tok>& toks, std::size_t i) {
  const std::string& o = toks[i].text;
  const std::string cl = o == "(" ? ")" : o == "[" ? "]" : "}";
  int d = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == o)
      ++d;
    else if (toks[j].text == cl && --d == 0)
      return j;
  }
  return toks.size();
}

struct BodySpan {
  std::size_t open = 0;   // offset of '{' in code
  std::size_t close = 0;  // offset of matching '}'
};

/// Maximal function/lambda bodies: every `{...}` directly following a
/// parameter list `)` (allowing const/noexcept/mutable qualifiers, a
/// trailing return type, or a constructor-initializer list), excluding
/// control-flow parens. Bodies nested inside a collected body are not
/// collected again — callers that care about nested lambdas recurse
/// themselves.
std::vector<BodySpan> function_bodies(const std::string& c) {
  std::vector<BodySpan> out;
  std::size_t i = 0;
  while (i < c.size()) {
    if (c[i] != '(') {
      ++i;
      continue;
    }
    // Identifier (or ']' of a lambda introducer) before '('.
    std::size_t e2 = i;
    while (e2 > 0 && std::isspace(static_cast<unsigned char>(c[e2 - 1])))
      --e2;
    std::size_t b2 = e2;
    while (b2 > 0 && ident_char(c[b2 - 1])) --b2;
    const std::string prev = c.substr(b2, e2 - b2);
    static const std::set<std::string> kNotAFunction = {
        "if",     "for",      "while",    "switch",        "catch",
        "return", "sizeof",   "alignof",  "decltype",      "assert",
        "constexpr", "defined", "static_assert", "alignas"};
    if (kNotAFunction.count(prev)) {
      ++i;
      continue;
    }
    int pd = 0;
    std::size_t j = i;
    for (; j < c.size(); ++j) {
      if (c[j] == '(') ++pd;
      else if (c[j] == ')' && --pd == 0) break;
    }
    if (j >= c.size()) {
      ++i;
      continue;
    }
    std::size_t k = j + 1;
    bool ok = true;
    while (k < c.size() && c[k] != '{') {
      if (std::isspace(static_cast<unsigned char>(c[k]))) {
        ++k;
        continue;
      }
      if (c[k] == ';') {
        ok = false;  // declaration, not a definition
        break;
      }
      if (ident_char(c[k])) {
        std::size_t w = k;
        while (w < c.size() && ident_char(c[w])) ++w;
        const std::string word = c.substr(k, w - k);
        if (word == "const" || word == "noexcept" || word == "mutable" ||
            word == "override" || word == "final") {
          k = w;
          continue;
        }
        ok = false;
        break;
      }
      if (c.compare(k, 2, "->") == 0 || c[k] == ':') {
        // Trailing return type or ctor-initializer: scan to the '{' that
        // opens the body (paren depth 0, tracking only round parens).
        int d2 = 0;
        while (k < c.size() && c[k] != ';' && !(d2 == 0 && c[k] == '{')) {
          if (c[k] == '(') ++d2;
          else if (c[k] == ')') --d2;
          ++k;
        }
        continue;
      }
      ok = false;
      break;
    }
    if (!ok || k >= c.size() || c[k] != '{') {
      ++i;
      continue;
    }
    const std::size_t close = match_brace(c, k);
    if (close == std::string::npos) {
      ++i;
      continue;
    }
    out.push_back({k, close});
    i = close + 1;  // maximal bodies only
  }
  return out;
}

/// Reads a member-access chain starting at Ident index `i`
/// ("a.b->c" => "a.b.c"); sets `end` to one past the last token consumed.
std::string read_key(const std::vector<Tok>& t, std::size_t i,
                     std::size_t& end) {
  std::string key = t[i].text;
  std::size_t j = i + 1;
  while (j + 1 < t.size() && (t[j].text == "." || t[j].text == "->") &&
         t[j + 1].kind == Tok::Ident) {
    key += "." + t[j + 1].text;
    j += 2;
  }
  end = j;
  return key;
}

/// True when `line` or the line above carries `lint:<tag>(<reason>)` with
/// a non-empty reason. When the tag is present but the reason is empty,
/// sets `empty_reason` so the caller can demand one.
bool annotated_with_reason(const std::vector<std::string>& raw_lines,
                           int line, const std::string& tag,
                           bool& empty_reason) {
  const std::string needle = "lint:" + tag + "(";
  for (int l = std::max(1, line - 1); l <= line; ++l) {
    if (l > static_cast<int>(raw_lines.size())) continue;
    const std::size_t p = raw_lines[l - 1].find(needle);
    if (p == std::string::npos) continue;
    const std::size_t r = p + needle.size();
    const std::size_t close = raw_lines[l - 1].find(')', r);
    if (close != std::string::npos && close > r) return true;
    empty_reason = true;
  }
  return false;
}

// ---------------------------------------------------------------------
// mapped-taint: values originating in mmapped tile-file headers/section
// tables, stream reads, or MatrixMarket parses are tainted until they
// flow through a recognized gate (a comparison in an if-condition where
// the value is not a multiplication operand, a checked-cast helper, a
// clamp, or an explicit `// lint:gated(<why>)`). Using a tainted value
// as an index, loop bound, allocation size, or memcpy/reinterpret_cast
// extent is a violation. Intra-procedural; flow-sensitive by token
// position; expression keys are textual member-access chains.
// ---------------------------------------------------------------------

const std::set<std::string>& mapped_types() {
  static const std::set<std::string> t = {"TileFileHeader", "TileFileSection",
                                          "MappedTileMatrix"};
  return t;
}

const std::set<std::string>& taint_source_calls() {
  static const std::set<std::string> s = {"read_u32", "read_u64", "read_i64",
                                          "gcount",   "stoll",    "stoull",
                                          "stoul",    "stoi",     "stod"};
  return s;
}

const std::set<std::string>& taint_gate_calls() {
  static const std::set<std::string> g = {"read_index", "require_valid",
                                          "min", "max", "clamp"};
  return g;
}

const std::set<std::string>& taint_sink_calls() {
  static const std::set<std::string> s = {
      "resize", "reserve", "assign", "memcpy",  "memmove", "memset",
      "malloc", "calloc",  "realloc", "fnv1a64", "bind_view", "read"};
  return s;
}

struct TaintScope {
  std::map<std::string, int> state;  // key -> 1 tainted, 2 gated
  std::set<std::string> roots;       // vars of mapped struct types
  std::set<std::string> reported;    // keys already reported in this body

  bool is_tainted(const std::string& key) const {
    // Container/introspection members describe in-memory objects the
    // program built itself, not bytes read from the file.
    static const std::set<std::string> kNeutralTail = {
        "size", "data", "empty", "begin", "end",
        "capacity", "front", "back", "c_str"};
    const std::size_t last_dot = key.rfind('.');
    if (last_dot != std::string::npos &&
        kNeutralTail.count(key.substr(last_dot + 1)))
      return false;
    const auto it = state.find(key);
    if (it != state.end()) return it->second == 1;
    // Field reads off a mapped-struct root are tainted on first use.
    const std::size_t dot = key.find('.');
    return dot != std::string::npos && roots.count(key.substr(0, dot)) > 0;
  }
};

/// Marks every member-access chain in [from, to) as gated, EXCEPT chains
/// that are a direct operand of `*` — a multiplicative comparison like
/// `s.bytes != s.count * s.elem_size` can wrap and does not bound its
/// factors (the PR-9 count=2^61 overflow), whereas the division form
/// `s.count != s.bytes / s.elem_size` does.
void gate_condition_keys(const std::vector<Tok>& t, std::size_t from,
                         std::size_t to, TaintScope& ts) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].kind != Tok::Ident) continue;
    if (i > from && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                     t[i - 1].text == "::"))
      continue;  // mid-chain
    std::size_t end = i;
    const std::string key = read_key(t, i, end);
    const bool mul_before = i > from && t[i - 1].text == "*";
    const bool mul_after = end < to && t[end].text == "*";
    if (!mul_before && !mul_after) ts.state[key] = 2;
    i = end - 1;
  }
}

bool range_has_comparator(const std::vector<Tok>& t, std::size_t from,
                          std::size_t to) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "==" || x == "!=" || x == "<" || x == ">" || x == "<=" ||
        x == ">=")
      return true;
  }
  return false;
}

void report_taint(const SourceFile& f,
                  const std::vector<std::string>& raw_lines,
                  const std::vector<Tok>& t, std::size_t at,
                  const std::string& key, const std::string& sink,
                  TaintScope& ts, std::vector<Violation>& out) {
  if (!ts.reported.insert(key).second) return;
  const int line = f.line_at[t[at].pos];
  if (allowed(raw_lines, line, "mapped-taint")) return;
  bool empty_reason = false;
  if (annotated_with_reason(raw_lines, line, "gated", empty_reason)) {
    ts.state[key] = 2;  // a justified gate annotation clears the key
    return;
  }
  if (empty_reason) {
    out.push_back({f.rel, line, "mapped-taint",
                   "lint:gated() on tainted '" + key +
                       "' needs a written reason between the parentheses"});
    return;
  }
  out.push_back({f.rel, line, "mapped-taint",
                 "tainted '" + key + "' (from mapped/deserialized bytes) " +
                     sink + " without passing a gate — validate it first "
                     "or annotate lint:gated(<why>)"});
}

/// Scans the argument tokens [from, to) and reports every tainted chain.
void check_sink_args(const SourceFile& f,
                     const std::vector<std::string>& raw_lines,
                     const std::vector<Tok>& t, std::size_t from,
                     std::size_t to, const std::string& sink,
                     TaintScope& ts, std::vector<Violation>& out) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].kind != Tok::Ident) continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                  t[i - 1].text == "::"))
      continue;
    std::size_t end = i;
    const std::string key = read_key(t, i, end);
    if (ts.is_tainted(key)) report_taint(f, raw_lines, t, i, key, sink, ts, out);
    i = end - 1;
  }
}

/// True when [from, to) contains a call to one of `names`.
bool range_has_call(const std::vector<Tok>& t, std::size_t from,
                    std::size_t to, const std::set<std::string>& names) {
  for (std::size_t i = from; i < to && i + 1 < t.size(); ++i) {
    if (t[i].kind == Tok::Ident && names.count(t[i].text) &&
        t[i + 1].text == "(")
      return true;
  }
  return false;
}

/// True when [from, to) mentions a currently tainted chain.
bool range_has_taint(const std::vector<Tok>& t, std::size_t from,
                     std::size_t to, const TaintScope& ts) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].kind != Tok::Ident) continue;
    if (i > from && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                     t[i - 1].text == "::"))
      continue;
    std::size_t end = i;
    const std::string key = read_key(t, i, end);
    if (ts.is_tainted(key)) return true;
    i = end - 1;
  }
  return false;
}

std::size_t find_tok(const std::vector<Tok>& t, std::size_t from,
                     std::size_t to, const char* text) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].text == text) return i;
  }
  return to;
}

void taint_walk_body(const SourceFile& f,
                     const std::vector<std::string>& raw_lines,
                     const std::vector<Tok>& t, std::size_t from,
                     std::size_t to, TaintScope& ts,
                     std::vector<Violation>& out) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    const Tok& tk = t[i];
    if (tk.kind == Tok::Ident) {
      // Mapped-struct declarations establish taint roots.
      if (mapped_types().count(tk.text)) {
        std::size_t j = i + 1;
        while (j < to && (t[j].text == "&" || t[j].text == "*" ||
                          t[j].text == "const" || t[j].text == "&&"))
          ++j;
        if (j < to && t[j].kind == Tok::Ident) ts.roots.insert(t[j].text);
        continue;
      }
      if (tk.text == "if" && i + 1 < to && t[i + 1].text == "(") {
        const std::size_t close = tok_match(t, i + 1);
        if (close < to && range_has_comparator(t, i + 2, close)) {
          gate_condition_keys(t, i + 2, close, ts);
        }
        continue;  // walk proceeds into the condition for sinks/sources
      }
      if ((tk.text == "for" || tk.text == "while") && i + 1 < to &&
          t[i + 1].text == "(") {
        const std::size_t close = tok_match(t, i + 1);
        if (close < to) {
          std::size_t cb = i + 2, ce = close;
          if (tk.text == "for") {
            const std::size_t semi1 = find_tok(t, i + 2, close, ";");
            const std::size_t semi2 =
                semi1 < close ? find_tok(t, semi1 + 1, close, ";") : close;
            // Walk the init segment first so `n = h.count` taints n
            // before the bound check.
            if (semi1 < close)
              taint_walk_body(f, raw_lines, t, i + 2, semi1, ts, out);
            cb = semi1 < close ? semi1 + 1 : close;
            ce = semi2;
          }
          check_sink_args(f, raw_lines, t, cb, ce, "used as a loop bound",
                          ts, out);
        }
        continue;
      }
      // Gate calls: require_valid(x) / read_index(...) as a statement
      // gate every chain they mention.
      if (taint_gate_calls().count(tk.text) && i + 1 < to &&
          t[i + 1].text == "(") {
        const std::size_t close = tok_match(t, i + 1);
        if (close < to) {
          for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].kind != Tok::Ident) continue;
            if (t[j - 1].text == "." || t[j - 1].text == "->" ||
                t[j - 1].text == "::")
              continue;
            std::size_t e3 = j;
            ts.state[read_key(t, j, e3)] = 2;
            j = e3 - 1;
          }
        }
      }
      // Sink calls.
      if (taint_sink_calls().count(tk.text) && i + 1 < to &&
          t[i + 1].text == "(") {
        const std::size_t close = tok_match(t, i + 1);
        if (close < to) {
          check_sink_args(f, raw_lines, t, i + 2, close,
                          "used as a size/extent in a call to '" + tk.text +
                              "'",
                          ts, out);
        }
      }
      if (tk.text == "reinterpret_cast") {
        const std::size_t lp = find_tok(t, i + 1, to, "(");
        if (lp < to) {
          const std::size_t close = tok_match(t, lp);
          if (close < to) {
            check_sink_args(f, raw_lines, t, lp + 1, close,
                            "used in a reinterpret_cast extent", ts, out);
          }
        }
      }
      continue;
    }
    // Subscript sink: '[' whose left neighbour is an lvalue tail.
    if (tk.text == "[" && i > from &&
        (t[i - 1].kind == Tok::Ident || t[i - 1].text == ")" ||
         t[i - 1].text == "]")) {
      const std::size_t close = tok_match(t, i);
      if (close < to) {
        check_sink_args(f, raw_lines, t, i + 1, close,
                        "used as an array index", ts, out);
      }
      continue;
    }
    // Stream extraction `in >> x >> y` (no '=' earlier in the statement)
    // taints the extracted identifiers.
    if (tk.text == ">>" && i + 1 < to && t[i + 1].kind == Tok::Ident) {
      bool saw_assign = false;
      for (std::size_t j = i; j-- > from;) {
        if (t[j].text == ";" || t[j].text == "{" || t[j].text == "}") break;
        if (t[j].text == "=") {
          saw_assign = true;
          break;
        }
      }
      if (!saw_assign) {
        std::size_t e3 = i + 1;
        const std::string key = read_key(t, i + 1, e3);
        if (!ts.state.count(key) || ts.state[key] != 2) ts.state[key] = 1;
      }
      continue;
    }
    // Assignment / declaration-with-initializer: propagate. The LHS is
    // the member-access chain ENDING directly before '=' (a declaration
    // like `const std::streamsize got = ...` assigns to `got`, not to
    // the type tokens before it).
    if (tk.text == "=" && i > from) {
      if (t[i - 1].kind != Tok::Ident) continue;  // a[i] = / *p = etc.
      std::size_t lbeg = i - 1;
      while (lbeg >= from + 2 &&
             (t[lbeg - 1].text == "." || t[lbeg - 1].text == "->") &&
             t[lbeg - 2].kind == Tok::Ident)
        lbeg -= 2;
      std::size_t kend = lbeg;
      const std::string lhs = read_key(t, lbeg, kend);
      if (kend != i) continue;  // chain did not end at '='
      const std::size_t semi = find_tok(t, i + 1, to, ";");
      const bool src = range_has_call(t, i + 1, semi, taint_source_calls());
      const bool gated = range_has_call(t, i + 1, semi, taint_gate_calls());
      const bool tainted_rhs = range_has_taint(t, i + 1, semi, ts);
      if (gated)
        ts.state[lhs] = 2;
      else if (src || tainted_rhs)
        ts.state[lhs] = 1;
      else
        ts.state.erase(lhs);
      continue;
    }
  }
}

void rule_mapped_taint(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    const bool in_scope = f.rel.rfind("src/formats/", 0) == 0 ||
                          f.rel.rfind("src/serve/", 0) == 0;
    if (!in_scope) continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    const bool tile_file_impl =
        f.rel.find("tile_file") != std::string::npos;
    for (const BodySpan& b : function_bodies(f.code)) {
      // Include the parameter list so mapped-struct parameters become
      // taint roots: back up to the '(' that precedes the body.
      std::size_t pstart = b.open;
      {
        int d = 0;
        for (std::size_t p = b.open; p-- > 0;) {
          const char ch = f.code[p];
          if (ch == ')') ++d;
          else if (ch == '(' && --d == 0) {
            pstart = p;
            break;
          }
          else if (ch == ';' || ch == '}') break;
        }
      }
      const std::vector<Tok> toks = tokenize(f.code, pstart, b.close + 1);
      TaintScope ts;
      if (tile_file_impl) {
        // Class members mapping the file are taint roots everywhere.
        ts.roots.insert("header_");
        ts.roots.insert("sections_");
      }
      taint_walk_body(f, raw_lines, toks, 0, toks.size(), ts, out);
    }
  }
}

// ---------------------------------------------------------------------
// shared-write: inside parallel dispatch lambda bodies, writes through
// reference-captured state must be per-slot disambiguated (an index
// derived from the lambda's range parameters or a current_slot /
// scratch_slot / current_shard value), protected by a lock held at the
// write, or annotated `// lint:owned(<invariant>)`. The parallel
// infrastructure itself (thread_pool / parallel_for / atomics) is
// exempt; atomic_* helper calls are function calls, not assignments, so
// they pass naturally.
// ---------------------------------------------------------------------

const std::set<std::string>& dispatch_names() {
  static const std::set<std::string> d = {"parallel_for", "parallel_for_ranges",
                                          "parallel_ranges",
                                          "parallel_shard_ranges",
                                          "parallel_reduce"};
  return d;
}

const std::set<std::string>& slot_calls() {
  static const std::set<std::string> s = {"current_slot", "scratch_slot",
                                          "current_shard"};
  return s;
}

bool shared_write_exempt(const std::string& rel) {
  return rel.rfind("src/", 0) != 0 ||
         rel == "src/parallel/thread_pool.hpp" ||
         rel == "src/parallel/parallel_for.hpp" ||
         rel == "src/parallel/atomics.hpp";
}

struct LambdaSpan {
  std::size_t cap_open = 0;   // token index of '['
  std::size_t body_open = 0;  // token index of '{'
  std::size_t body_close = 0;
  bool by_ref = false;        // capture list can alias enclosing state
};

/// Parses a lambda whose introducer '[' is at token index `i`.
bool parse_lambda(const std::vector<Tok>& t, std::size_t i, LambdaSpan& L) {
  if (t[i].text != "[") return false;
  const std::size_t cap_close = tok_match(t, i);
  if (cap_close >= t.size()) return false;
  L.cap_open = i;
  for (std::size_t j = i + 1; j < cap_close; ++j) {
    if (t[j].text == "&") L.by_ref = true;
  }
  std::size_t j = cap_close + 1;
  if (j < t.size() && t[j].text == "(") j = tok_match(t, j) + 1;
  while (j < t.size() && t[j].kind == Tok::Ident &&
         (t[j].text == "mutable" || t[j].text == "noexcept"))
    ++j;
  if (j < t.size() && t[j].text == "->") {
    while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
  }
  if (j >= t.size() || t[j].text != "{") return false;
  L.body_open = j;
  L.body_close = tok_match(t, j);
  return L.body_close < t.size();
}

/// Collects parameter names of the lambda whose introducer is at
/// `cap_open` (the last identifier of each comma-separated declarator).
std::set<std::string> lambda_params(const std::vector<Tok>& t,
                                    std::size_t cap_open) {
  std::set<std::string> params;
  const std::size_t cap_close = tok_match(t, cap_open);
  if (cap_close + 1 >= t.size() || t[cap_close + 1].text != "(")
    return params;
  const std::size_t pclose = tok_match(t, cap_close + 1);
  std::string last;
  int depth = 0;
  for (std::size_t j = cap_close + 2; j < pclose; ++j) {
    if (t[j].text == "(" || t[j].text == "<" || t[j].text == "[") ++depth;
    else if (t[j].text == ")" || t[j].text == ">" || t[j].text == "]")
      --depth;
    else if (t[j].text == "," && depth == 0) {
      if (!last.empty()) params.insert(last);
      last.clear();
    } else if (t[j].kind == Tok::Ident) {
      last = t[j].text;
    }
  }
  if (!last.empty()) params.insert(last);
  return params;
}

/// Analyzes one by-ref-capturing parallel lambda body for writes through
/// captured state.
void analyze_parallel_lambda(const SourceFile& f,
                             const std::vector<std::string>& raw_lines,
                             const std::vector<Tok>& t, const LambdaSpan& L,
                             std::vector<Violation>& out) {
  std::set<std::string> owned = lambda_params(t, L.cap_open);
  std::set<std::string> locals = owned;
  std::set<std::string> reported;
  int spin_depth = 0;
  int brace_depth = 0;
  std::vector<int> guard_depths;  // brace depths holding a lock_guard

  auto subscript_has_owned = [&](std::size_t from, std::size_t to2) {
    for (std::size_t j = from; j < to2; ++j) {
      if (t[j].text != "[") continue;
      const std::size_t cl = tok_match(t, j);
      for (std::size_t k = j + 1; k < cl && k < to2 + 64; ++k) {
        if (t[k].kind == Tok::Ident && owned.count(t[k].text)) return true;
      }
      j = cl;
    }
    return false;
  };
  auto flag = [&](std::size_t at, const std::string& base) {
    if (!reported.insert(base + ":" +
                         std::to_string(f.line_at[t[at].pos])).second)
      return;
    const int line = f.line_at[t[at].pos];
    if (allowed(raw_lines, line, "shared-write")) return;
    bool empty_reason = false;
    if (annotated_with_reason(raw_lines, line, "owned", empty_reason)) return;
    if (empty_reason) {
      out.push_back({f.rel, line, "shared-write",
                     "lint:owned() on write to '" + base +
                         "' needs the ownership invariant written between "
                         "the parentheses"});
      return;
    }
    out.push_back(
        {f.rel, line, "shared-write",
         "write to reference-captured '" + base +
             "' inside a parallel region without per-slot indexing, a "
             "held lock, or an atomic_* helper — disambiguate per slot "
             "or annotate lint:owned(<invariant>)"});
  };
  auto check_span = [&](std::size_t lbeg, std::size_t lend,
                        std::size_t at) {
    // lvalue tokens [lbeg, lend): base identifier is the first Ident.
    std::size_t bi = lbeg;
    while (bi < lend && t[bi].kind != Tok::Ident) ++bi;
    if (bi >= lend) return;
    const std::string base = t[bi].text;
    if (locals.count(base) || owned.count(base)) return;
    if (subscript_has_owned(lbeg, lend)) return;
    if (spin_depth > 0 || !guard_depths.empty()) return;
    flag(at, base);
  };
  // Walks backward from the write operator at `at` over one postfix
  // expression (member-access chains and balanced subscripts) and judges
  // the write. Stops at anything else, so `if (c) y = 5` judges `y`, not
  // the condition.
  auto check_write_before = [&](std::size_t at) {
    std::size_t j = at;
    std::size_t lo = at;
    bool found = false;
    while (j > L.body_open) {
      const Tok& p = t[j - 1];
      if (p.text == "]") {
        int d = 0;
        std::size_t q = j;
        while (q-- > L.body_open) {
          if (t[q].text == "]") ++d;
          else if (t[q].text == "[" && --d == 0) break;
        }
        if (q <= L.body_open || t[q].text != "[") return;
        j = q;
        lo = q;
        continue;
      }
      if (p.kind == Tok::Ident) {
        found = true;
        lo = --j;
        if (j > L.body_open &&
            (t[j - 1].text == "." || t[j - 1].text == "->" ||
             t[j - 1].text == "::")) {
          lo = --j;
          continue;
        }
        break;
      }
      break;  // '*', ')', cast tokens … — the chain ends here
    }
    if (found) check_span(lo, at, at);
  };

  // Parses a local-variable declaration starting at token `i0`
  // (qualifiers, type chain with :: and <>, ptr/ref, then one or more
  // comma-separated declarators with optional array suffixes and
  // = / {} / () initializers). Returns the index of the statement
  // terminator on success (registering locals and ownership), or `i0`
  // when the tokens are not a declaration. `forinit` relaxes the
  // no-subscript ownership restriction: a for-init induction variable
  // walking `partition[c] .. partition[c+1]` with an owned chunk id `c`
  // iterates a range that is disjoint across workers by construction.
  auto try_decl = [&](std::size_t i0, bool forinit) -> std::size_t {
    static const std::set<std::string> kQual = {
        "const", "static", "constexpr", "volatile", "auto", "unsigned",
        "signed", "long",  "short",     "struct",   "class", "typename"};
    static const std::set<std::string> kStmtKw = {
        "return", "if",    "while",    "for",   "do",     "else",
        "switch", "case",  "break",    "continue", "goto", "throw",
        "delete", "new",   "using",    "typedef", "sizeof", "default",
        "public", "private", "protected"};
    std::size_t j = i0;
    bool saw_type = false;
    while (j < L.body_close && t[j].kind == Tok::Ident &&
           kQual.count(t[j].text)) {
      if (t[j].text != "const" && t[j].text != "static" &&
          t[j].text != "constexpr" && t[j].text != "volatile")
        saw_type = true;  // auto / builtin type words
      ++j;
    }
    const bool qual_type = saw_type;  // type word seen in the qualifier run
    bool chain_parsed = false;
    std::size_t chain_start = j;
    if (j < L.body_close && t[j].kind == Tok::Ident) {
      if (kStmtKw.count(t[j].text)) return i0;
      chain_parsed = true;
      ++j;
      while (j + 1 < L.body_close && t[j].text == "::" &&
             t[j + 1].kind == Tok::Ident)
        j += 2;
      if (j < L.body_close && t[j].text == "<") {
        // Try a balanced template-argument list; on failure leave `j`
        // (it was a comparison, and the decl attempt will fail below).
        int ad = 0;
        std::size_t j2 = j;
        bool closed = false;
        for (; j2 < L.body_close; ++j2) {
          const std::string& x = t[j2].text;
          if (x == "<") ++ad;
          else if (x == ">") {
            if (--ad == 0) {
              closed = true;
              ++j2;
              break;
            }
          } else if (x == ">>") {
            ad -= 2;
            if (ad <= 0) {
              closed = true;
              ++j2;
              break;
            }
          } else if (x == ";" || x == "{" || x == ")" || x == "==") {
            break;
          }
        }
        if (closed) j = j2;
      }
      saw_type = true;
    } else if (!saw_type) {
      return i0;
    }
    while (j < L.body_close &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "&&" ||
            (t[j].kind == Tok::Ident && t[j].text == "const")))
      ++j;
    if (j >= L.body_close || t[j].kind != Tok::Ident) {
      // `const auto si = …`: a type word came from the qualifier run, so
      // the chain we consumed was actually the declarator name.
      if (!(qual_type && chain_parsed)) return i0;
      j = chain_start;
    }
    if (!saw_type) return i0;
    std::vector<std::pair<std::string, bool>> decls;  // (name, owned)
    while (true) {
      if (j >= L.body_close || t[j].kind != Tok::Ident) return i0;
      const std::string name = t[j].text;
      ++j;
      while (j < L.body_close && t[j].text == "[") j = tok_match(t, j) + 1;
      bool owned_init = false;
      if (j < L.body_close &&
          (t[j].text == "=" || t[j].text == "{" || t[j].text == "(")) {
        std::size_t ib, ie;
        if (t[j].text == "=") {
          ib = j + 1;
          int d = 0;
          ie = ib;
          for (; ie < L.body_close; ++ie) {
            const std::string& x = t[ie].text;
            if (x == "(" || x == "[" || x == "{") ++d;
            else if (x == ")" || x == "]" || x == "}") {
              if (d == 0) break;
              --d;
            } else if (d == 0 && (x == "," || x == ";" || x == ":")) {
              break;
            }
          }
          j = ie;
        } else {
          ie = tok_match(t, j);
          if (ie >= L.body_close) return i0;
          ib = j + 1;
          j = ie + 1;
        }
        bool from_slot = false, from_owned = false, has_subscript = false;
        for (std::size_t q = ib; q < ie; ++q) {
          if (t[q].kind == Tok::Ident && slot_calls().count(t[q].text))
            from_slot = true;
          if (t[q].kind == Tok::Ident && owned.count(t[q].text) &&
              (q == ib || (t[q - 1].text != "." && t[q - 1].text != "->" &&
                           t[q - 1].text != "::")))
            from_owned = true;
          if (t[q].text == "[") has_subscript = true;
        }
        // Values loaded through a subscript are NOT owned: an index read
        // from an array (col = cols[j]) can collide across ranges even
        // when j is range-private. For-init induction ranges are the
        // one exception (see above).
        owned_init = from_slot || (from_owned && (forinit || !has_subscript));
      }
      decls.emplace_back(name, owned_init);
      if (j < L.body_close && t[j].text == ",") {
        ++j;
        continue;
      }
      if (j >= L.body_close ||
          (t[j].text != ";" && t[j].text != ":"))
        return i0;
      break;
    }
    for (const auto& [name, own] : decls) {
      locals.insert(name);
      if (own) owned.insert(name);
    }
    return j;  // index of the terminator (';' or range-for ':')
  };

  bool at_stmt = true;
  bool for_init = false;
  for (std::size_t i = L.body_open; i < L.body_close; ++i) {
    const Tok& tk = t[i];
    if (tk.text == "{") {
      ++brace_depth;
      at_stmt = true;
      continue;
    }
    if (tk.text == "}") {
      while (!guard_depths.empty() && guard_depths.back() >= brace_depth)
        guard_depths.pop_back();
      --brace_depth;
      at_stmt = true;
      continue;
    }
    if (tk.text == ";") {
      at_stmt = true;
      for_init = false;
      continue;
    }
    if (tk.text == ")") {
      at_stmt = true;
      for_init = false;
      continue;
    }
    if (tk.kind == Tok::Ident) {
      if (tk.text == "for" && i + 1 < L.body_close &&
          t[i + 1].text == "(") {
        at_stmt = true;
        for_init = true;
        ++i;  // next iteration starts on the first init token
        continue;
      }
      // Lock helpers: spin_lock/spin_unlock and repo-style wrappers
      // (lock_tile / unlock_tile …) guard the writes between them.
      const bool is_call =
          i + 1 < L.body_close && t[i + 1].text == "(";
      if (is_call && (tk.text == "spin_unlock" ||
                      tk.text.rfind("unlock", 0) == 0 ||
                      tk.text.find("_unlock") != std::string::npos)) {
        if (spin_depth > 0) --spin_depth;
        at_stmt = false;
        continue;
      }
      if (is_call &&
          (tk.text == "spin_lock" || tk.text == "lock" ||
           tk.text.rfind("lock_", 0) == 0 ||
           (tk.text.size() > 5 &&
            tk.text.compare(tk.text.size() - 5, 5, "_lock") == 0))) {
        ++spin_depth;
        at_stmt = false;
        continue;
      }
      if (tk.text == "lock_guard" || tk.text == "unique_lock" ||
          tk.text == "scoped_lock") {
        guard_depths.push_back(brace_depth);
        at_stmt = false;
        continue;
      }
      if (at_stmt) {
        const std::size_t d_end = try_decl(i, for_init);
        if (d_end != i) {
          i = d_end - 1;  // re-process the terminator
          continue;
        }
      }
      at_stmt = false;
      continue;
    }
    if (tk.text == "=" || tk.text == "+=" || tk.text == "-=" ||
        tk.text == "*=" || tk.text == "/=" || tk.text == "%=" ||
        tk.text == "|=" || tk.text == "&=" || tk.text == "^=" ||
        tk.text == "<<=" || tk.text == ">>=") {
      check_write_before(i);
      continue;
    }
    if (tk.text == "++" || tk.text == "--") {
      if (i + 1 < L.body_close && t[i + 1].kind == Tok::Ident) {
        // Prefix: operand chain (plus any subscripts) follows.
        std::size_t e3 = i + 1;
        read_key(t, i + 1, e3);
        while (e3 < L.body_close && t[e3].text == "[") {
          e3 = tok_match(t, e3) + 1;
          while (e3 + 1 < L.body_close &&
                 (t[e3].text == "." || t[e3].text == "->") &&
                 t[e3 + 1].kind == Tok::Ident) {
            std::size_t tmp = e3 + 1;
            read_key(t, e3 + 1, tmp);
            e3 = tmp;
          }
        }
        check_span(i + 1, e3, i);
        i = e3 - 1;
      } else if (i > L.body_open) {
        check_write_before(i);
      }
      continue;
    }
  }
}

void rule_shared_write(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    if (shared_write_exempt(f.rel)) continue;
    bool any = false;
    for (const std::string& d : dispatch_names()) {
      if (contains_word(f.code, d)) any = true;
    }
    if (!any) continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    const std::vector<Tok> toks = tokenize(f.code, 0, f.code.size());
    std::set<std::size_t> analyzed;  // lambda body_open token indexes
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Ident || !dispatch_names().count(toks[i].text))
        continue;
      if (toks[i + 1].text != "(") continue;
      const std::size_t close = tok_match(toks, i + 1);
      if (close >= toks.size()) continue;
      // Inline lambda arguments.
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") --depth;
        else if (toks[j].text == "[" &&
                 (toks[j - 1].text == "(" || toks[j - 1].text == ",")) {
          LambdaSpan L;
          if (parse_lambda(toks, j, L) && L.by_ref &&
              analyzed.insert(L.body_open).second) {
            analyze_parallel_lambda(f, raw_lines, toks, L, out);
          }
          if (L.body_close > j) j = L.body_close;
        } else if (toks[j].kind == Tok::Ident && depth == 0 &&
                   (toks[j + 1].text == "," || toks[j + 1].text == ")")) {
          // Named-lambda argument: resolve `auto NAME = [...](..){..};`
          // defined earlier in this file.
          for (std::size_t k = 0; k + 2 < j; ++k) {
            if (toks[k].kind == Tok::Ident && toks[k].text == toks[j].text &&
                toks[k + 1].text == "=" && toks[k + 2].text == "[") {
              LambdaSpan L;
              if (parse_lambda(toks, k + 2, L) && L.by_ref &&
                  analyzed.insert(L.body_open).second) {
                analyze_parallel_lambda(f, raw_lines, toks, L, out);
              }
              break;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// lock-discipline: spin_lock/spin_unlock balance per scope. Nested
// lambda bodies are separate scopes. Flags: return/throw while a spin
// lock is held, spin_unlock without a matching spin_lock, and a lock
// still held when the scope ends.
// ---------------------------------------------------------------------

void lock_walk_scope(const SourceFile& f,
                     const std::vector<std::string>& raw_lines,
                     const std::vector<Tok>& t, std::size_t from,
                     std::size_t to, std::vector<Violation>& out) {
  std::vector<std::size_t> held;  // token indexes of unmatched spin_lock
  auto flag = [&](std::size_t at, const std::string& msg) {
    const int line = f.line_at[t[at].pos];
    if (allowed(raw_lines, line, "lock-discipline")) return;
    out.push_back({f.rel, line, "lock-discipline", msg});
  };
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    const Tok& tk = t[i];
    if (tk.text == "[" &&
        (i == from ||
         (t[i - 1].kind != Tok::Ident && t[i - 1].text != ")" &&
          t[i - 1].text != "]"))) {
      // Lambda introducer: recurse into its body as a separate scope.
      LambdaSpan L;
      if (parse_lambda(t, i, L)) {
        lock_walk_scope(f, raw_lines, t, L.body_open + 1, L.body_close, out);
        i = L.body_close;
        continue;
      }
      i = tok_match(t, i);
      continue;
    }
    if (tk.kind != Tok::Ident) continue;
    if (tk.text == "spin_lock" && i + 1 < to && t[i + 1].text == "(") {
      held.push_back(i);
      continue;
    }
    if (tk.text == "spin_unlock" && i + 1 < to && t[i + 1].text == "(") {
      if (held.empty()) {
        flag(i, "spin_unlock without a matching spin_lock in this scope");
      } else {
        held.pop_back();
      }
      continue;
    }
    if ((tk.text == "return" || tk.text == "throw") && !held.empty()) {
      flag(i, "'" + tk.text + "' while a spin lock acquired at line " +
                  std::to_string(f.line_at[t[held.back()].pos]) +
                  " is still held — release it on every exit path");
    }
  }
  for (const std::size_t h : held) {
    flag(h, "spin_lock is still held when the scope ends — missing "
            "spin_unlock on the fall-through path");
  }
}

void rule_lock_discipline(const Tree& t, std::vector<Violation>& out) {
  for (const SourceFile& f : t.files) {
    if (f.rel.rfind("src/", 0) != 0) continue;
    if (f.rel == "src/parallel/atomics.hpp") continue;  // the definitions
    if (!contains_word(f.code, "spin_lock") &&
        !contains_word(f.code, "spin_unlock"))
      continue;
    const std::vector<std::string> raw_lines = split_lines(f.raw);
    for (const BodySpan& b : function_bodies(f.code)) {
      const std::vector<Tok> toks = tokenize(f.code, b.open + 1, b.close);
      lock_walk_scope(f, raw_lines, toks, 0, toks.size(), out);
    }
  }
}

std::vector<Violation> lint_tree(const fs::path& root) {
  const Tree t = load_tree(root);
  std::vector<Violation> out;
  rule_simd_twin(t, out);
  rule_twin_fuzz(t, out);
  rule_counter_doc(t, out);
  rule_validator_fields(t, out);
  rule_hot_path(t, out);
  rule_raw_atomic(t, out);
  rule_core_atomic_add(t, out);
  rule_core_nested_vector(t, out);
  rule_include_hygiene(t, out);
  rule_mapped_taint(t, out);
  rule_shared_write(t, out);
  rule_lock_discipline(t, out);
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  // Overlapping hot-path regions (file marker + block marker) can report
  // the same site twice; keep one.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Violation& a, const Violation& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

int run_suite(const fs::path& fixtures) {
  if (!fs::exists(fixtures)) {
    std::fprintf(stderr, "fixture directory not found: %s\n",
                 fixtures.string().c_str());
    return 2;
  }
  int failures = 0;
  int cases = 0;
  std::vector<fs::path> dirs;
  for (const auto& ent : fs::directory_iterator(fixtures)) {
    if (ent.is_directory()) dirs.push_back(ent.path());
  }
  std::sort(dirs.begin(), dirs.end());
  for (const fs::path& d : dirs) {
    ++cases;
    const std::string fixture = d.filename().string();
    // Expected rule = directory name up to the first '.' ("clean" = none).
    const std::string expect = fixture.substr(0, fixture.find('.'));
    const std::vector<Violation> v = lint_tree(d);
    bool ok;
    if (expect == "clean") {
      ok = v.empty();
    } else {
      // Each seeded fixture must be flagged EXACTLY once, by its rule.
      ok = v.size() == 1 && v[0].rule == expect;
    }
    std::printf("  %-28s %s (%zu finding%s)\n", fixture.c_str(),
                ok ? "PASS" : "FAIL", v.size(), v.size() == 1 ? "" : "s");
    if (!ok) {
      ++failures;
      for (const Violation& x : v) {
        std::printf("      %s:%d: [%s] %s\n", x.file.c_str(), x.line,
                    x.rule.c_str(), x.message.c_str());
      }
      if (v.empty() && expect != "clean") {
        std::printf("      expected at least one '%s' finding, got none\n",
                    expect.c_str());
      }
    }
  }
  std::printf("lint suite: %d/%d fixtures behaved as seeded\n",
              cases - failures, cases);
  return failures == 0 && cases > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path suite;
  bool suite_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (a == "--suite" && i + 1 < argc) {
      suite_mode = true;
      suite = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: tilespmspv_lint [--root DIR] | --suite FIXTURE_DIR\n"
          "Lints the TileSpMSpV tree for repo-specific invariants\n"
          "(see docs/STATIC_ANALYSIS.md). Exit 0 clean, 1 findings.\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (suite_mode) return run_suite(suite);
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "no src/ under --root %s — wrong directory?\n",
                 root.string().c_str());
    return 2;
  }
  const std::vector<Violation> v = lint_tree(root);
  for (const Violation& x : v) {
    std::printf("%s:%d: [%s] %s\n", x.file.c_str(), x.line, x.rule.c_str(),
                x.message.c_str());
  }
  if (v.empty()) {
    std::printf("tilespmspv_lint: tree is clean\n");
    return 0;
  }
  std::printf("tilespmspv_lint: %zu finding%s\n", v.size(),
              v.size() == 1 ? "" : "s");
  return 1;
}
