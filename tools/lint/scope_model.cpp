#include "scope_model.h"

#include <algorithm>
#include <cstddef>
#include <set>

namespace dlion_lint {
namespace {

// Keywords that can never begin a variable declaration we care about. A
// statement led by one of these is skipped wholesale.
const std::set<std::string>& bail_keywords() {
  static const std::set<std::string> kSet = {
      "if",       "for",      "while",    "switch",   "return",  "delete",
      "new",      "throw",    "case",     "goto",     "break",   "continue",
      "do",       "else",     "public",   "private",  "protected",
      "operator", "template", "using",    "typedef",  "friend",
      "static_assert", "namespace", "class", "struct", "enum",   "union",
      "sizeof",   "co_return", "co_await", "co_yield", "default", "asm",
      "export",   "requires", "concept",  "try",      "catch",
  };
  return kSet;
}

// Storage/placement qualifiers skipped (and in static's case, recorded)
// before the type begins.
const std::set<std::string>& qualifier_keywords() {
  static const std::set<std::string> kSet = {
      "static",   "constexpr", "constinit", "inline",   "mutable",
      "thread_local", "extern", "const",    "volatile", "virtual",
      "explicit", "typename",  "register",  "alignas",
  };
  return kSet;
}

bool is_annotation_ident(const std::string& text) {
  if (text.rfind("DLION_", 0) != 0) return false;
  return std::all_of(text.begin() + 6, text.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || c == '_' ||
           (c >= '0' && c <= '9');
  });
}

bool is_word(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Append a token to canonical type text: no space around scope/template/
// pointer punctuation, a single space between adjacent words.
void append_type_token(std::string& type, const Token& t,
                       const Token* prev) {
  if (!type.empty() && prev != nullptr && is_word(*prev) && is_word(t)) {
    type += ' ';
  }
  type += t.text;
}

// Capture "NAME(...)" annotation text starting at tokens[i] (NAME), with
// i advanced past the closing paren. Returns empty if no paren follows.
std::string capture_annotation(const std::vector<Token>& toks,
                               std::size_t& i) {
  std::string text = toks[i].text;
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") {
    ++i;
    return std::string();
  }
  i += 1;  // at '('
  int depth = 0;
  for (; i < toks.size(); ++i) {
    text += toks[i].text;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")") {
      --depth;
      if (depth == 0) {
        ++i;
        break;
      }
    }
  }
  return text;
}

struct Statement {
  std::vector<Token> toks;
  std::string terminator;  // ";", "{", "}", ":" (access spec) or "" at EOF
};

// Try to read "qualifiers type declarator ..." out of a statement.
// `in_function_scope` disambiguates `T name(...)`: a variable with ctor
// arguments inside a function, a function declaration elsewhere.
bool parse_decl(const Statement& st, bool in_function_scope, VarDecl& out) {
  const auto& toks = st.toks;
  std::size_t k = 0;
  bool is_static = false;
  while (k < toks.size() && is_word(toks[k]) &&
         qualifier_keywords().count(toks[k].text) != 0) {
    if (toks[k].text == "static") is_static = true;
    const bool has_args = toks[k].text == "alignas";
    ++k;
    if (has_args && k < toks.size() && toks[k].text == "(") {
      int depth = 0;
      for (; k < toks.size(); ++k) {
        if (toks[k].text == "(") ++depth;
        if (toks[k].text == ")" && --depth == 0) {
          ++k;
          break;
        }
      }
    }
  }
  if (k >= toks.size()) return false;
  if (!is_word(toks[k]) && toks[k].text != "::") return false;
  if (is_word(toks[k]) && bail_keywords().count(toks[k].text) != 0) {
    return false;
  }

  // Greedily consume the type-and-declarator run; remember token indices.
  std::vector<std::size_t> run;
  int name_line = 0;
  while (k < toks.size()) {
    const Token& t = toks[k];
    if (t.kind == TokenKind::kDirective) {
      ++k;
      continue;
    }
    if (is_word(t)) {
      if (is_annotation_ident(t.text) && k + 1 < toks.size() &&
          toks[k + 1].text == "(") {
        break;  // annotation macro, not part of the declarator
      }
      if (bail_keywords().count(t.text) != 0 && t.text != "const") break;
      run.push_back(k++);
      continue;
    }
    if (t.text == "::" || t.text == "*" || t.text == "&" ||
        t.text == "&&") {
      run.push_back(k++);
      continue;
    }
    if (t.text == "<") {
      // Balanced template argument list ('>>' closes two levels).
      int depth = 0;
      std::size_t j = k;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") --depth;
        if (toks[j].text == ">>") depth -= 2;
        if (depth <= 0) break;
      }
      if (j >= toks.size() || depth < 0) return false;  // not a type
      for (std::size_t m = k; m <= j; ++m) run.push_back(m);
      k = j + 1;
      continue;
    }
    break;
  }
  if (run.size() < 2) return false;

  // The declarator name is the last word in the run that sits outside
  // template arguments and is not a scope-qualified type component.
  std::ptrdiff_t name_pos = -1;
  int angle = 0;
  for (std::size_t m = 0; m < run.size(); ++m) {
    const Token& t = toks[run[m]];
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (t.text == ">>") angle -= 2;
    if (angle != 0 || !is_word(t)) continue;
    const bool qualified = m > 0 && toks[run[m - 1]].text == "::";
    const bool qualifies = m + 1 < run.size() &&
                           toks[run[m + 1]].text == "::";
    if (!qualified && !qualifies && m > 0) name_pos = static_cast<std::ptrdiff_t>(m);
  }
  if (name_pos <= 0) return false;
  const Token& name_tok = toks[run[static_cast<std::size_t>(name_pos)]];
  name_line = name_tok.line;

  // `T name(...)` outside a function body is a function declaration.
  const std::size_t after = static_cast<std::size_t>(
      run[static_cast<std::size_t>(name_pos)] + 1);
  if (after < toks.size() && toks[after].text == "(" &&
      !in_function_scope) {
    return false;
  }

  std::string type;
  const Token* prev = nullptr;
  for (std::ptrdiff_t m = 0; m < name_pos; ++m) {
    const Token& t = toks[run[static_cast<std::size_t>(m)]];
    append_type_token(type, t, prev);
    prev = &t;
  }
  if (type.empty()) return false;

  out.type = type;
  out.name = name_tok.text;
  out.line = name_line;
  out.is_static = is_static;
  out.annotations.clear();
  for (std::size_t j = after; j < toks.size();) {
    if (is_word(toks[j]) && is_annotation_ident(toks[j].text)) {
      std::string ann = capture_annotation(toks, j);
      if (!ann.empty()) out.annotations.push_back(std::move(ann));
      continue;
    }
    ++j;
  }
  return true;
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock, kSkip } kind;
  std::size_t class_index = 0;  // valid when kind == kClass
};

}  // namespace

std::string ScopeModel::type_of(const std::string& name) const {
  for (auto it = locals.rbegin(); it != locals.rend(); ++it) {
    if (it->name == name) return it->type;
  }
  for (const ClassInfo& c : classes) {
    for (const VarDecl& m : c.members) {
      if (m.name == name) return m.type;
    }
  }
  for (const VarDecl& g : globals) {
    if (g.name == name) return g.type;
  }
  return std::string();
}

ScopeModel build_scope_model(const std::vector<Token>& tokens) {
  ScopeModel model;
  std::vector<Scope> stack;

  auto in_function = [&stack] {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Scope::kFunction) return true;
      if (it->kind == Scope::kClass || it->kind == Scope::kNamespace) {
        return false;
      }
    }
    return false;
  };
  auto in_skip = [&stack] {
    return !stack.empty() && stack.back().kind == Scope::kSkip;
  };

  std::size_t i = 0;
  while (i < tokens.size()) {
    // Collect one statement up to a top-level ; { or }.
    Statement st;
    int paren = 0;
    int brack = 0;
    bool saw_top_paren = false;
    while (i < tokens.size()) {
      const Token& t = tokens[i];
      if (t.kind == TokenKind::kDirective) {
        ++i;
        continue;
      }
      if (t.text == "(") {
        if (paren == 0 && brack == 0) saw_top_paren = true;
        ++paren;
      }
      if (t.text == ")") paren = std::max(0, paren - 1);
      if (t.text == "[") ++brack;
      if (t.text == "]") brack = std::max(0, brack - 1);
      // `T name{...}` / `T arr[] = {...}`: a brace *initializer*, not a
      // scope. Skip its balanced braces and keep collecting toward the ';'
      // so the declaration still models (e.g. an atomic member with a
      // default value). Scope-opening heads and anything with a top-level
      // '(' (function definitions, ctor init lists) are excluded.
      if (paren == 0 && brack == 0 && t.text == "{" && !st.toks.empty() &&
          !saw_top_paren &&
          (is_word(st.toks.back()) || st.toks.back().text == "=")) {
        const std::string& head = st.toks.front().text;
        const bool scope_head =
            head == "namespace" || head == "class" || head == "struct" ||
            head == "enum" || head == "union" || head == "template" ||
            head == "extern" || bail_keywords().count(head) != 0;
        if (!scope_head) {
          int bd = 0;
          while (i < tokens.size()) {
            if (tokens[i].text == "{") ++bd;
            if (tokens[i].text == "}" && --bd == 0) {
              ++i;
              break;
            }
            ++i;
          }
          continue;
        }
      }
      if (paren == 0 && brack == 0 &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        st.terminator = t.text;
        ++i;
        break;
      }
      if (paren == 0 && brack == 0 && t.text == ":" &&
          st.toks.size() == 1 && is_word(st.toks[0]) &&
          (st.toks[0].text == "public" || st.toks[0].text == "private" ||
           st.toks[0].text == "protected")) {
        st.terminator = t.text;
        ++i;
        break;
      }
      st.toks.push_back(t);
      ++i;
    }

    if (st.terminator == ":") continue;  // access specifier

    if (st.terminator == "}") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }

    // Strip a leading `template <...>` so templated classes still model.
    std::vector<Token>* toks = &st.toks;
    std::vector<Token> stripped;
    if (!toks->empty() && (*toks)[0].text == "template") {
      std::size_t j = 1;
      if (j < toks->size() && (*toks)[j].text == "<") {
        int depth = 0;
        for (; j < toks->size(); ++j) {
          if ((*toks)[j].text == "<") ++depth;
          if ((*toks)[j].text == ">") --depth;
          if ((*toks)[j].text == ">>") depth -= 2;
          if (depth <= 0) {
            ++j;
            break;
          }
        }
      }
      stripped.assign(toks->begin() + static_cast<std::ptrdiff_t>(j),
                      toks->end());
      toks = &stripped;
    }

    if (st.terminator == "{") {
      if (in_skip()) {
        stack.push_back({Scope::kSkip, 0});
        continue;
      }
      const std::string head =
          toks->empty() ? std::string() : (*toks)[0].text;
      if (head == "namespace") {
        stack.push_back({Scope::kNamespace, 0});
      } else if (head == "class" || head == "struct") {
        // Class head: name is the last word before the base-clause colon
        // (skipping annotation-macro arguments), `final` excluded.
        ClassInfo info;
        int angle = 0;
        int cparen = 0;
        for (std::size_t m = 1; m < toks->size(); ++m) {
          const Token& t = (*toks)[m];
          if (t.text == "(") ++cparen;
          if (t.text == ")") cparen = std::max(0, cparen - 1);
          if (t.text == "<") ++angle;
          if (t.text == ">") --angle;
          if (t.text == ">>") angle -= 2;
          if (cparen == 0 && angle == 0 && t.text == ":") break;
          if (cparen == 0 && angle == 0 && is_word(t) &&
              t.text != "final" && !is_annotation_ident(t.text)) {
            info.name = t.text;
            info.line = t.line;
          }
        }
        model.classes.push_back(std::move(info));
        stack.push_back({Scope::kClass, model.classes.size() - 1});
      } else if (head == "enum" || head == "union") {
        stack.push_back({Scope::kSkip, 0});
      } else {
        const bool has_paren = std::any_of(
            toks->begin(), toks->end(),
            [](const Token& t) { return t.text == "("; });
        const bool fn_position =
            stack.empty() || stack.back().kind == Scope::kNamespace ||
            stack.back().kind == Scope::kClass;
        if (has_paren && fn_position &&
            bail_keywords().count(head) == 0) {
          stack.push_back({Scope::kFunction, 0});
          // Model the parameter list: each top-level comma segment inside
          // the first paren group is itself a "type declarator" phrase, so
          // receiver resolution works on parameters too.
          std::size_t p0 = 0;
          while (p0 < toks->size() && (*toks)[p0].text != "(") ++p0;
          std::vector<Token> param;
          int pdepth = 0;
          auto flush_param = [&] {
            if (param.empty()) return;
            Statement pst;
            pst.toks = std::move(param);
            param.clear();
            VarDecl pdecl;
            if (parse_decl(pst, true, pdecl)) {
              model.locals.push_back(std::move(pdecl));
            }
          };
          for (std::size_t m = p0; m < toks->size(); ++m) {
            const std::string& tx = (*toks)[m].text;
            if (tx == "(") {
              if (++pdepth == 1) continue;  // the opening paren itself
            } else if (tx == ")") {
              if (--pdepth == 0) {
                flush_param();
                break;
              }
            } else if (tx == "," && pdepth == 1) {
              flush_param();
              continue;
            }
            param.push_back((*toks)[m]);
          }
        } else {
          stack.push_back({Scope::kBlock, 0});
        }
      }
      continue;
    }

    // terminator ";" (or EOF): candidate declaration.
    if (toks->empty() || in_skip()) continue;
    Statement parsed;
    parsed.toks = *toks;
    VarDecl decl;
    const bool fn_scope = in_function();
    if (!parse_decl(parsed, fn_scope, decl)) continue;
    if (!stack.empty() && stack.back().kind == Scope::kClass) {
      model.classes[stack.back().class_index].members.push_back(
          std::move(decl));
    } else if (fn_scope && !decl.is_static) {
      model.locals.push_back(std::move(decl));
    } else {
      model.globals.push_back(std::move(decl));
    }
  }
  return model;
}

bool is_std_mutex_type(const std::string& type) {
  for (const char* t :
       {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
        "std::timed_mutex", "std::shared_timed_mutex",
        "std::recursive_timed_mutex"}) {
    if (type.find(t) != std::string::npos) return true;
  }
  return false;
}

bool is_mutex_type(const std::string& type) {
  if (is_std_mutex_type(type)) return true;
  // common::Mutex in any qualification, or unqualified inside the library.
  if (type == "Mutex" || type == "common::Mutex" ||
      type == "dlion::common::Mutex") {
    return true;
  }
  return type.size() > 7 &&
         type.compare(type.size() - 7, 7, "::Mutex") == 0;
}

bool is_atomic_type(const std::string& type) {
  return type.find("std::atomic") != std::string::npos;
}

bool is_payload_type(const std::string& type) {
  return type.find("Payload<") != std::string::npos ||
         type.find("WeightPayload") != std::string::npos ||
         type.find("PayloadHandle") != std::string::npos;
}

bool is_thread_type(const std::string& type) {
  return type.find("std::thread") != std::string::npos ||
         type.find("std::jthread") != std::string::npos;
}

}  // namespace dlion_lint
