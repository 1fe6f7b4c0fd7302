// dlion-lint v2 tests, in two layers:
//
//  * unit: the lexer and scope model are linked directly (dlion_lint_core)
//    and probed with golden token streams — the lexical corners (raw
//    strings, digraphs, line continuations) that motivated replacing the
//    line-oriented v1 scanner are each pinned here;
//  * end-to-end: the built binary runs over tests/tools/fixture_v2 and the
//    v1 fixture tree, asserting exact file:line diagnostics per semantic
//    rule, byte-identical v1 output against the committed golden
//    transcript, and the stale-allowlist detector.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"
#include "scope_model.h"

#ifndef DLION_LINT_BINARY
#error "build must define DLION_LINT_BINARY"
#endif
#ifndef DLION_REPO_ROOT
#error "build must define DLION_REPO_ROOT"
#endif

namespace {

using dlion_lint::Token;
using dlion_lint::TokenKind;

// --- lexer ----------------------------------------------------------------

std::vector<Token> lex_str(const std::string& s) { return dlion_lint::lex(s); }

const Token* find_token(const std::vector<Token>& toks,
                        const std::string& text) {
  for (const Token& t : toks) {
    if (t.text == text) return &t;
  }
  return nullptr;
}

TEST(LintLexerTest, LineContinuationSplicesAndKeepsStartingLine) {
  const auto toks = lex_str("int a\\\nbc = 1;\nint second;\n");
  const Token* abc = find_token(toks, "abc");
  ASSERT_NE(abc, nullptr) << "a\\\\\\nbc must splice to one identifier";
  EXPECT_EQ(abc->kind, TokenKind::kIdentifier);
  EXPECT_EQ(abc->line, 1) << "spliced token belongs to its starting line";
  const Token* second = find_token(toks, "second");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->line, 3) << "physical line numbering resumes after splice";
}

TEST(LintLexerTest, RawStringKeepsBackslashNewlineVerbatim) {
  // Inside a raw string, phase-2 splicing is reverted: the backslash and
  // newline are literal content, not a continuation.
  const std::string src = "auto s = R\"x(line1\\\nline2)x\";\nint after;\n";
  const auto toks = lex_str(src);
  const Token* str = nullptr;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kString) str = &t;
  }
  ASSERT_NE(str, nullptr);
  EXPECT_NE(str->text.find("line1\\\nline2"), std::string::npos)
      << "raw string mangled: " << str->text;
  EXPECT_EQ(str->line, 1);
  const Token* after = find_token(toks, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 3);
}

TEST(LintLexerTest, RawStringArbitraryDelimiterAndEmbeddedQuote) {
  const auto toks = lex_str("auto j = R\"json({\"k\": \")\"})json\";");
  const Token* str = nullptr;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kString) str = &t;
  }
  ASSERT_NE(str, nullptr);
  EXPECT_NE(str->text.find(")json\""), std::string::npos);
  // The embedded braces/quotes must not leak punctuation tokens.
  EXPECT_EQ(find_token(toks, "k"), nullptr);
  EXPECT_EQ(find_token(toks, "{"), nullptr);
}

TEST(LintLexerTest, DigraphsNormalizeToPrimarySpelling) {
  const auto toks = lex_str("int a<:0:> = <%1%>;\n");
  std::string puncts;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kPunct) puncts += t.text;
  }
  EXPECT_EQ(puncts, "[]={};") << "digraphs <: :> <% %> must normalize";
}

TEST(LintLexerTest, LessColonColonDisambiguation) {
  // [lex.pptoken]: vector<::ns::T> lexes as '<' '::', not '[' ':'.
  const auto toks = lex_str("std::vector<::fixture::T> v;");
  std::vector<std::string> texts;
  for (const Token& t : toks) texts.push_back(t.text);
  const std::vector<std::string> expected = {
      "std", "::", "vector", "<", "::", "fixture", "::", "T", ">", "v", ";"};
  EXPECT_EQ(texts, expected);
}

TEST(LintLexerTest, DirectiveSwallowsMultiLineMacroBody) {
  const auto toks =
      lex_str("#define FOO(x) \\\n  ((x) + 1)\nint y;\n");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokenKind::kDirective);
  EXPECT_EQ(toks[0].text, "define");
  EXPECT_EQ(toks[0].line, 1);
  // The macro body never reads as code: next token is the declaration.
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 3);
}

TEST(LintLexerTest, CommentsAndCharLiteralsProduceNoTokens) {
  const auto toks = lex_str(
      "// std::mutex in a comment\n/* std::thread */ char c = '\\n';");
  EXPECT_EQ(find_token(toks, "mutex"), nullptr);
  EXPECT_EQ(find_token(toks, "thread"), nullptr);
  const Token* lit = nullptr;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kChar) lit = &t;
  }
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->text, "'\\n'");
}

// --- scope model ----------------------------------------------------------

TEST(LintScopeModelTest, MembersAnnotationsAndParamsResolve) {
  const std::string src =
      "namespace n {\n"
      "class Pool {\n"
      " public:\n"
      "  void run(std::mutex& park, int n);\n"
      " private:\n"
      "  common::Mutex mu_;\n"
      "  std::queue<std::function<void()>> tasks_ DLION_GUARDED_BY(mu_);\n"
      "  std::atomic<std::size_t> seq_{0};\n"
      "};\n"
      "void n::Pool::run(std::mutex& park, int n) { park.lock(); }\n"
      "}\n";
  const auto model = dlion_lint::build_scope_model(dlion_lint::lex(src));
  ASSERT_EQ(model.classes.size(), 1u);
  const auto& pool = model.classes[0];
  EXPECT_EQ(pool.name, "Pool");
  ASSERT_EQ(pool.members.size(), 3u);
  EXPECT_EQ(pool.members[0].name, "mu_");
  EXPECT_TRUE(dlion_lint::is_mutex_type(pool.members[0].type))
      << pool.members[0].type;
  EXPECT_EQ(pool.members[1].name, "tasks_");
  ASSERT_EQ(pool.members[1].annotations.size(), 1u);
  EXPECT_EQ(pool.members[1].annotations[0], "DLION_GUARDED_BY(mu_)");
  // Brace-initialized member still models (the {0} is an initializer,
  // not a scope).
  EXPECT_EQ(pool.members[2].name, "seq_");
  EXPECT_TRUE(dlion_lint::is_atomic_type(pool.members[2].type))
      << pool.members[2].type;
  // Function parameters resolve like locals.
  EXPECT_TRUE(dlion_lint::is_std_mutex_type(model.type_of("park")));
}

TEST(LintScopeModelTest, StaticAndNamespaceScopePayloadsAreGlobals) {
  const std::string src =
      "namespace f {\n"
      "comm::WeightPayload g_update;\n"
      "void stage() { static comm::Payload<float> cache; }\n"
      "}\n";
  const auto model = dlion_lint::build_scope_model(dlion_lint::lex(src));
  ASSERT_EQ(model.globals.size(), 2u);
  EXPECT_TRUE(dlion_lint::is_payload_type(model.globals[0].type));
  EXPECT_TRUE(model.globals[1].is_static);
  EXPECT_TRUE(dlion_lint::is_payload_type(model.globals[1].type));
}

// --- end-to-end against the built binary ----------------------------------

struct RunResult {
  int exit_code = -1;
  std::string output;
};

std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->name() + std::string("_") + name;
}

RunResult run_lint(const std::string& args) {
  const std::string out_path = temp_path("dlion_lint_out.txt");
  const std::string cmd = std::string("\"") + DLION_LINT_BINARY + "\" " +
                          args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  RunResult r;
#if defined(_WIN32)
  r.exit_code = status;
#else
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
  std::ifstream in(out_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  r.output = buf.str();
  return r;
}

std::string v1_fixture_dir() {
  return std::string(DLION_REPO_ROOT) + "/tests/tools/fixture";
}
std::string v2_fixture_dir() {
  return std::string(DLION_REPO_ROOT) + "/tests/tools/fixture_v2";
}

TEST(LintV2Test, SemanticRulesFireAtExactFixtureLines) {
  const RunResult r =
      run_lint("--root " + v2_fixture_dir() + " " + v2_fixture_dir());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const struct {
    const char* loc;
    const char* rule;
  } expected[] = {
      {"bad_concurrency.cpp:16", "dlion-lock-no-raii"},
      {"bad_concurrency.cpp:18", "dlion-lock-no-raii"},
      {"bad_concurrency.cpp:22", "dlion-unannotated-mutex"},
      {"bad_concurrency.cpp:23", "dlion-unannotated-mutex"},
      {"bad_concurrency.cpp:30", "dlion-atomic-rmw-order"},
      {"bad_concurrency.cpp:31", "dlion-atomic-rmw-order"},
      {"bad_concurrency.cpp:40", "dlion-raw-thread"},
      {"bad_concurrency.cpp:41", "dlion-raw-thread"},
      {"bad_escape.h:9", "dlion-payload-escape"},
      {"bad_escape.h:11", "dlion-payload-escape"},
      {"bad_escape.h:16", "dlion-payload-escape"},
      {"bad_escape.h:19", "dlion-payload-escape"},
  };
  for (const auto& e : expected) {
    const std::string line = std::string(e.loc) + ": error: ";
    EXPECT_NE(r.output.find(line), std::string::npos)
        << "missing " << e.loc << " in:\n" << r.output;
    EXPECT_NE(r.output.find(e.rule), std::string::npos)
        << "missing " << e.rule << " in:\n" << r.output;
  }
  // The blessed spellings (including the inline-allowed acq_rel RMW) stay
  // silent.
  EXPECT_EQ(r.output.find("good_concurrency.cpp:"), std::string::npos)
      << r.output;
}

TEST(LintV2Test, V1FixtureOutputMatchesCommittedGoldenByteForByte) {
  std::ifstream golden_in(v1_fixture_dir() + "/expected_v1_output.txt");
  ASSERT_TRUE(golden_in.good()) << "missing committed golden transcript";
  std::ostringstream golden;
  golden << golden_in.rdbuf();

  // The semantic rules are active but silent on the v1 fixtures, so the
  // output pins the text rules' diagnostics byte for byte.
  const RunResult full =
      run_lint("--root " + v1_fixture_dir() + " " + v1_fixture_dir());
  EXPECT_EQ(full.exit_code, 1);
  EXPECT_EQ(full.output, golden.str());
}

TEST(LintV2Test, StaleAllowlistEntryIsReportedAndGateable) {
  const std::string allow_path = temp_path("stale_allow.txt");
  {
    std::ofstream allow(allow_path);
    allow << "# live: suppresses real diagnostics in the fixture\n";
    allow << "dlion-nondet-entropy bad_nondet.cpp\n";
    allow << "# stale: the rule never fires in this file\n";
    allow << "dlion-raw-thread bad_nondet.cpp\n";
    allow << "# out of scope: matches no scanned file, must be skipped\n";
    allow << "dlion-nondet-entropy bench/\n";
  }
  const RunResult r = run_lint("--root " + v1_fixture_dir() +
                               " --allowlist " + allow_path + " " +
                               v1_fixture_dir());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("dlion-stale-allowlist"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(":4: error:"), std::string::npos)
      << "stale diagnostic must point at the allowlist entry line\n"
      << r.output;
  EXPECT_NE(r.output.find("dlion-raw-thread bad_nondet.cpp"),
            std::string::npos)
      << r.output;
  // The live and out-of-scope entries are not reported.
  EXPECT_EQ(r.output.find("'dlion-nondet-entropy bad_nondet.cpp'"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("'dlion-nondet-entropy bench/'"),
            std::string::npos)
      << r.output;

  const RunResult off = run_lint("--root " + v1_fixture_dir() +
                                 " --allowlist " + allow_path +
                                 " --no-stale-check " + v1_fixture_dir());
  EXPECT_EQ(off.output.find("dlion-stale-allowlist"), std::string::npos)
      << off.output;
}

}  // namespace
