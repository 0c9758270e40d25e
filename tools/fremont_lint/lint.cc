#include "tools/fremont_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace fremont::lint {

namespace fs = std::filesystem;

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int LineOfOffset(const std::string& text, size_t offset) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<ptrdiff_t>(
                                                           std::min(offset, text.size())),
                                         '\n'));
}

// All .h/.cc files under `dir`, sorted for deterministic reports.
std::vector<fs::path> SourceFilesUnder(const fs::path& dir) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) {
    return files;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Relative(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  return ec ? file.string() : rel.generic_string();
}

// Finds `name` at an identifier boundary starting at or after `from`;
// npos when absent. `name` may contain "::" (boundary applies to its ends).
size_t FindToken(const std::string& code, const std::string& name, size_t from = 0) {
  size_t pos = code.find(name, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + name.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) {
      return pos;
    }
    pos = code.find(name, pos + 1);
  }
  return std::string::npos;
}

bool ContainsToken(const std::string& code, const std::string& name) {
  return FindToken(code, name) != std::string::npos;
}

// --- Rule 6/7 helpers --------------------------------------------------------

// The subsystems that carry thread-safety annotations (rules 6 and 7).
constexpr const char* kAnnotatedDirs[] = {
    "src/journal",
    "src/serve",
    "src/telemetry",
    "src/sim/runtime",
};

// The rule-7 lock-name prefix for a directory: its last path segment.
std::string SubsystemOf(const std::string& dir) {
  const size_t slash = dir.rfind('/');
  return slash == std::string::npos ? dir : dir.substr(slash + 1);
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// Maximal identifier-character runs in `s`, in order.
std::vector<std::string> IdentTokens(const std::string& s) {
  std::vector<std::string> tokens;
  for (size_t i = 0; i < s.size();) {
    if (IsIdentChar(s[i])) {
      size_t end = i;
      while (end < s.size() && IsIdentChar(s[end])) {
        ++end;
      }
      tokens.push_back(s.substr(i, end - i));
      i = end;
    } else {
      ++i;
    }
  }
  return tokens;
}

// 1-based numbers of RAW (pre-StripComments) lines carrying a
// `lint: unguarded(<reason>)` escape-hatch tag.
std::set<int> UnguardedTagLines(const std::string& raw) {
  std::set<int> lines;
  int line = 1;
  size_t start = 0;
  while (start <= raw.size()) {
    const size_t end = raw.find('\n', start);
    const size_t len = (end == std::string::npos ? raw.size() : end) - start;
    if (raw.substr(start, len).find("lint: unguarded(") != std::string::npos) {
      lines.insert(line);
    }
    if (end == std::string::npos) {
      break;
    }
    start = end + 1;
    ++line;
  }
  return lines;
}

struct ClassBlock {
  std::string name;
  size_t body_begin;  // Offset just past the opening '{'.
  size_t body_end;    // Offset of the matching '}'.
};

// Class/struct definitions in comment-stripped code (nested ones included as
// their own blocks). Forward declarations, `enum class`, and template
// parameters (`template <class T>`) are excluded.
std::vector<ClassBlock> FindClassBlocks(const std::string& code) {
  std::vector<ClassBlock> blocks;
  for (const std::string keyword : {"class", "struct"}) {
    size_t pos = 0;
    while ((pos = FindToken(code, keyword, pos)) != std::string::npos) {
      const size_t kw = pos;
      pos += keyword.size();
      // `enum class X` / `enum struct X` declares an enum, not a class.
      size_t back = kw;
      while (back > 0 && IsSpace(code[back - 1])) {
        --back;
      }
      size_t prev_start = back;
      while (prev_start > 0 && IsIdentChar(code[prev_start - 1])) {
        --prev_start;
      }
      if (code.substr(prev_start, back - prev_start) == "enum") {
        continue;
      }
      // The class name.
      size_t p = pos;
      while (p < code.size() && IsSpace(code[p])) {
        ++p;
      }
      const size_t name_start = p;
      while (p < code.size() && IsIdentChar(code[p])) {
        ++p;
      }
      if (p == name_start) {
        continue;
      }
      const std::string name = code.substr(name_start, p - name_start);
      // Walk to the body's '{'. A ';' first is a forward declaration; a
      // '>' / ',' / '=' / '(' before any ':' (base clause) means the keyword
      // was a template parameter, not a definition.
      bool saw_colon = false;
      size_t open = std::string::npos;
      for (size_t i = p; i < code.size(); ++i) {
        const char c = code[i];
        if (c == ';') {
          break;
        }
        if (c == ':') {
          saw_colon = true;
        }
        if (!saw_colon && (c == '>' || c == ',' || c == '=' || c == '(' || c == ')')) {
          break;
        }
        if (c == '{') {
          open = i;
          break;
        }
      }
      if (open == std::string::npos) {
        continue;
      }
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t i = open; i < code.size(); ++i) {
        if (code[i] == '{') {
          ++depth;
        } else if (code[i] == '}' && --depth == 0) {
          close = i;
          break;
        }
      }
      if (close == std::string::npos) {
        continue;
      }
      blocks.push_back({name, open + 1, close});
    }
  }
  return blocks;
}

// Depth-0 view of a class body: nested brace blocks (member function bodies,
// nested classes, brace initializers) are blanked with newlines kept, and
// each block's closing brace becomes ';' so an inline function body
// terminates its statement the way a declaration's ';' would.
std::string FlattenClassBody(const std::string& body) {
  std::string out = body;
  int depth = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (c == '{') {
      ++depth;
      out[i] = ' ';
    } else if (c == '}') {
      --depth;
      out[i] = depth == 0 ? ';' : ' ';
    } else if (depth > 0 && c != '\n') {
      out[i] = ' ';
    }
  }
  return out;
}

// A member-declaration statement is a function declaration when its first
// parenthesis — ignoring FREMONT_* annotation-macro argument lists — comes
// before any '='.
bool IsFunctionDecl(const std::string& s) {
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '=') {
      return false;
    }
    if (c != '(') {
      continue;
    }
    size_t end = i;
    while (end > 0 && IsSpace(s[end - 1])) {
      --end;
    }
    size_t start = end;
    while (start > 0 && IsIdentChar(s[start - 1])) {
      --start;
    }
    if (s.substr(start, end - start).rfind("FREMONT_", 0) == 0) {
      int depth = 0;
      size_t j = i;
      for (; j < s.size(); ++j) {
        if (s[j] == '(') {
          ++depth;
        } else if (s[j] == ')' && --depth == 0) {
          break;
        }
      }
      i = j;
      continue;
    }
    return true;
  }
  return false;
}

enum class MemberKind {
  kNotAMember,  // Function, alias, nested type, access label, friend, ...
  kCapability,  // A Mutex/SharedMutex member: the lock itself.
  kOk,          // Data member with a declared synchronization story.
  kUnsynced,    // Data member with none — rule 6 flags it in locked classes.
};

struct MemberInfo {
  MemberKind kind = MemberKind::kNotAMember;
  std::string name;
};

MemberInfo ClassifyMemberStatement(const std::string& stmt) {
  // Blank access-specifier labels so "private:\n Foo bar_;" reads as the
  // member alone.
  std::string s = stmt;
  for (const std::string label : {"public", "private", "protected"}) {
    size_t at = 0;
    while ((at = FindToken(s, label, at)) != std::string::npos) {
      size_t colon = at + label.size();
      while (colon < s.size() && IsSpace(s[colon])) {
        ++colon;
      }
      if (colon < s.size() && s[colon] == ':' &&
          (colon + 1 >= s.size() || s[colon + 1] != ':')) {
        for (size_t i = at; i <= colon; ++i) {
          s[i] = ' ';
        }
      }
      at = colon;
    }
  }
  const std::vector<std::string> tokens = IdentTokens(s);
  if (tokens.empty()) {
    return {};
  }
  if (ContainsToken(s, "operator")) {
    return {};  // `operator=(...) = delete` puts its '=' before the '('.
  }
  for (const char* keyword : {"using", "typedef", "friend", "static", "enum", "class",
                              "struct", "template", "explicit", "virtual"}) {
    if (tokens.front() == keyword) {
      return {};
    }
  }
  if (IsFunctionDecl(s)) {
    return {};
  }
  if (ContainsToken(s, "Mutex") || ContainsToken(s, "SharedMutex")) {
    return {MemberKind::kCapability, ""};
  }
  MemberInfo info;
  info.kind = MemberKind::kUnsynced;
  // Member name: the identifier before '=' when initialized, else the last.
  const size_t eq = s.find('=');
  const std::vector<std::string> name_tokens =
      eq == std::string::npos ? tokens : IdentTokens(s.substr(0, eq));
  info.name = name_tokens.empty() ? tokens.back() : name_tokens.back();
  if (ContainsToken(s, "FREMONT_GUARDED_BY") || ContainsToken(s, "FREMONT_PT_GUARDED_BY") ||
      ContainsToken(s, "std::atomic") || ContainsToken(s, "CondVar") ||
      ContainsToken(s, "const")) {
    info.kind = MemberKind::kOk;
  }
  return info;
}

}  // namespace

std::string Issue::Format() const {
  std::ostringstream out;
  out << file;
  if (line > 0) {
    out << ":" << line;
  }
  out << ": [" << rule << "] " << message;
  return out.str();
}

std::string StripComments(const std::string& source) {
  std::string out = source;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < out.size() && out[i + 1] == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < out.size()) {
          ++i;
        } else if (c == '"' || c == '\n') {
          state = State::kCode;  // Newline: recover from unterminated literal.
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < out.size()) {
          ++i;
        } else if (c == '\'' || c == '\n') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<Issue> CheckRawThreads(const std::string& root) {
  std::vector<Issue> issues;
  for (const fs::path& file : SourceFilesUnder(fs::path(root) / "src")) {
    const std::string rel = Relative(file, root);
    const bool in_runtime = rel.rfind("src/sim/runtime/", 0) == 0;
    const std::string code = StripComments(ReadFile(file));
    if (!in_runtime) {
      for (const char* token : {"std::thread", "std::jthread", "pthread_create"}) {
        size_t pos = 0;
        while ((pos = FindToken(code, token, pos)) != std::string::npos) {
          issues.push_back({rel, LineOfOffset(code, pos), "raw-thread",
                            std::string("raw ") + token +
                                " outside src/sim/runtime/; shard work must run on the "
                                "WorkerPool so the window barriers see it"});
          pos += std::string(token).size();
        }
      }
    }
    // detach() is out even inside the runtime: a detached thread outlives the
    // pool's join and can touch a destroyed Simulator.
    size_t pos = 0;
    while ((pos = FindToken(code, "detach", pos)) != std::string::npos) {
      size_t open = pos + 6;  // strlen("detach")
      while (open < code.size() && std::isspace(static_cast<unsigned char>(code[open])) != 0) {
        ++open;
      }
      if (open < code.size() && code[open] == '(') {
        issues.push_back({rel, LineOfOffset(code, pos), "raw-thread",
                          "detach() creates a thread nothing joins; keep workers owned "
                          "by the runtime's WorkerPool"});
      }
      pos += 6;
    }
  }
  return issues;
}

std::vector<Issue> CheckGuardAnnotations(const std::string& root) {
  std::vector<Issue> issues;
  // Raw standard-library synchronization primitives; the annotated wrappers
  // in src/util/thread_annotations.h are the only ones the analysis can see.
  constexpr const char* kBannedPrimitives[] = {
      "std::mutex",
      "std::timed_mutex",
      "std::recursive_mutex",
      "std::recursive_timed_mutex",
      "std::shared_mutex",
      "std::shared_timed_mutex",
      "std::condition_variable",
      "std::condition_variable_any",
  };
  for (const char* dir : kAnnotatedDirs) {
    for (const fs::path& file : SourceFilesUnder(fs::path(root) / dir)) {
      const std::string rel = Relative(file, root);
      const std::string raw = ReadFile(file);
      const std::string code = StripComments(raw);

      // 6a: raw primitives are banned outright in annotated subsystems.
      for (const char* token : kBannedPrimitives) {
        size_t pos = 0;
        while ((pos = FindToken(code, token, pos)) != std::string::npos) {
          issues.push_back({rel, LineOfOffset(code, pos), "guard-annotations",
                            std::string("raw ") + token +
                                " in an annotated subsystem; use the fremont::Mutex / "
                                "SharedMutex / CondVar wrappers from "
                                "src/util/thread_annotations.h so -Wthread-safety sees "
                                "the capability"});
          pos += std::string(token).size();
        }
      }

      // 6b: every mutable member of a mutex-owning class needs a declared
      // synchronization story.
      const std::set<int> tag_lines = UnguardedTagLines(raw);
      for (const ClassBlock& block : FindClassBlocks(code)) {
        const std::string flat =
            FlattenClassBody(code.substr(block.body_begin, block.body_end - block.body_begin));
        struct Flagged {
          std::string name;
          size_t begin;
          size_t end;
        };
        bool owns_capability = false;
        std::vector<Flagged> flagged;
        size_t start = 0;
        while (start < flat.size()) {
          size_t end = flat.find(';', start);
          if (end == std::string::npos) {
            end = flat.size();
          }
          const MemberInfo info = ClassifyMemberStatement(flat.substr(start, end - start));
          if (info.kind == MemberKind::kCapability) {
            owns_capability = true;
          } else if (info.kind == MemberKind::kUnsynced) {
            flagged.push_back({info.name, start, end});
          }
          start = end + 1;
        }
        if (!owns_capability) {
          continue;
        }
        for (const Flagged& member : flagged) {
          const int first = LineOfOffset(code, block.body_begin + member.begin);
          const int last = LineOfOffset(code, block.body_begin + member.end);
          bool tagged = false;
          for (int line = first; line <= last && !tagged; ++line) {
            tagged = tag_lines.count(line) > 0;
          }
          if (tagged) {
            continue;
          }
          issues.push_back(
              {rel, last, "guard-annotations",
               "member `" + member.name + "` of mutex-owning class `" + block.name +
                   "` has no declared synchronization: add FREMONT_GUARDED_BY(...), make "
                   "it std::atomic or const, or tag it `// lint: unguarded(<reason>)`"});
        }
      }
    }
  }
  return issues;
}

std::vector<Issue> CheckLockOrder(const std::string& root) {
  std::vector<Issue> issues;
  const char* kOrderFile = "tools/fremont_lint/lock_order.txt";
  const fs::path order_path = fs::path(root) / kOrderFile;
  if (!fs::exists(order_path)) {
    // Fixture trees without a tools/ directory predate the hierarchy file
    // and opt out; a real tree that has the lint directory must declare one.
    if (fs::is_directory(fs::path(root) / "tools/fremont_lint")) {
      issues.push_back({kOrderFile, 0, "lock-order",
                        "lock hierarchy file is missing; declare the acquisition order "
                        "(one `A > B` line per constraint)"});
    }
    return issues;
  }

  // `A > B`: A is acquired before B. Names are `<subsystem>.<member>`.
  struct OrderPair {
    std::string before;
    std::string after;
  };
  std::vector<OrderPair> pairs;
  std::istringstream order_in(ReadFile(order_path));
  std::string line_text;
  int line_no = 0;
  const auto trim = [](std::string s) {
    const size_t first = s.find_first_not_of(" \t\r");
    const size_t last = s.find_last_not_of(" \t\r");
    return first == std::string::npos ? std::string() : s.substr(first, last - first + 1);
  };
  while (std::getline(order_in, line_text)) {
    ++line_no;
    const size_t hash = line_text.find('#');
    if (hash != std::string::npos) {
      line_text.resize(hash);
    }
    if (trim(line_text).empty()) {
      continue;
    }
    const size_t gt = line_text.find('>');
    const std::string before = gt == std::string::npos ? "" : trim(line_text.substr(0, gt));
    const std::string after = gt == std::string::npos ? "" : trim(line_text.substr(gt + 1));
    if (before.empty() || after.empty()) {
      issues.push_back({kOrderFile, line_no, "lock-order",
                        "malformed hierarchy line; expected `<subsystem>.<member> > "
                        "<subsystem>.<member>`"});
      continue;
    }
    pairs.push_back({before, after});
  }

  for (const char* dir : kAnnotatedDirs) {
    const std::string subsystem = SubsystemOf(dir);
    for (const fs::path& file : SourceFilesUnder(fs::path(root) / dir)) {
      const std::string rel = Relative(file, root);
      const std::string code = StripComments(ReadFile(file));
      struct Held {
        std::string name;
        int depth;
      };
      std::vector<Held> held;
      int depth = 0;
      for (size_t i = 0; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '{') {
          ++depth;
          continue;
        }
        if (c == '}') {
          --depth;
          while (!held.empty() && held.back().depth > depth) {
            held.pop_back();
          }
          continue;
        }
        if (!IsIdentChar(c) || (i > 0 && IsIdentChar(code[i - 1]))) {
          continue;
        }
        size_t end = i;
        while (end < code.size() && IsIdentChar(code[end])) {
          ++end;
        }
        const std::string ident = code.substr(i, end - i);
        if (ident != "MutexLock" && ident != "ReaderMutexLock" && ident != "WriterMutexLock") {
          i = end - 1;
          continue;
        }
        // A scoped acquisition reads `[const] <Wrapper> <var>(<expr>);`.
        size_t p = end;
        while (p < code.size() && IsSpace(code[p])) {
          ++p;
        }
        const size_t var_start = p;
        while (p < code.size() && IsIdentChar(code[p])) {
          ++p;
        }
        if (p == var_start) {
          i = end - 1;
          continue;
        }
        while (p < code.size() && IsSpace(code[p])) {
          ++p;
        }
        if (p >= code.size() || code[p] != '(') {
          i = end - 1;
          continue;
        }
        int paren = 0;
        size_t q = p;
        for (; q < code.size(); ++q) {
          if (code[q] == '(') {
            ++paren;
          } else if (code[q] == ')' && --paren == 0) {
            break;
          }
        }
        const std::vector<std::string> expr_tokens = IdentTokens(code.substr(p + 1, q - p - 1));
        if (expr_tokens.empty()) {
          i = q;
          continue;
        }
        const std::string acquired = subsystem + "." + expr_tokens.back();
        for (const OrderPair& pair : pairs) {
          if (pair.before != acquired) {
            continue;
          }
          for (const Held& h : held) {
            if (pair.after == h.name) {
              issues.push_back({rel, LineOfOffset(code, i), "lock-order",
                                "acquires " + acquired + " while " + h.name +
                                    " is held; the declared hierarchy "
                                    "(tools/fremont_lint/lock_order.txt) orders " +
                                    pair.before + " before " + pair.after});
            }
          }
        }
        held.push_back({acquired, depth});
        i = q;
      }
    }
  }
  return issues;
}

std::vector<Issue> RunAllRules(const std::string& root) {
  std::vector<Issue> issues = CheckRawThreads(root);
  std::vector<Issue> guards = CheckGuardAnnotations(root);
  issues.insert(issues.end(), guards.begin(), guards.end());
  std::vector<Issue> order = CheckLockOrder(root);
  issues.insert(issues.end(), order.begin(), order.end());
  return issues;
}

}  // namespace fremont::lint
