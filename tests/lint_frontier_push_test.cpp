// Golden-fixture tests for ppg_lint's unbounded-frontier-push rule: in
// src/search, a frontier push — a heap push or any container insert /
// emplace — is a finding unless a budget check (max_nodes / cache_bytes /
// enforce_budgets) sits within two lines of it, or the line carries a
// waiver. Same throwaway-tree harness as the other lint fixtures, plus a
// check that the rule still recognises the real ordered search's push.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "test_util.h"

namespace {

namespace fs = std::filesystem;

struct LintRun {
  int exit_code = -1;
  std::string output;
};

class LintFrontierPushTest : public ::testing::Test {
 protected:
  void write_file(const std::string& rel, const std::string& body) {
    const fs::path p = root_.path() / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << body;
    ASSERT_TRUE(out.good()) << rel;
  }

  LintRun run_lint() {
    const std::string out_path = root_.file("lint_output.txt");
    const std::string cmd = std::string(PPG_LINT_BIN) + " --root " +
                            root_.path().string() + " > " + out_path +
                            " 2>&1";
    const int rc = std::system(cmd.c_str());
    LintRun run;
    run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::ifstream in(out_path);
    run.output.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    return run;
  }

  const ppg::testing::TempDir root_;
};

TEST_F(LintFrontierPushTest, FiresOnUnguardedInsert) {
  write_file("src/search/beam.cpp",
             "void Beam::push_children(std::vector<Node>& kids) {\n"
             "  log_children(kids);\n"
             "  for (auto& k : kids) score(k);\n"
             "  frontier_.insert(kids.begin(), kids.end());\n"
             "  log_frontier();\n"
             "  trace_push();\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(
      run.output.find("src/search/beam.cpp:4: [unbounded-frontier-push]"),
      std::string::npos)
      << run.output;
}

TEST_F(LintFrontierPushTest, InsertNextToBudgetCheckIsClean) {
  write_file("src/search/beam.cpp",
             "void Beam::push_children(std::vector<Node>& kids) {\n"
             "  log_children(kids);\n"
             "  frontier_.emplace(std::move(kids.front()));\n"
             "  log_frontier();\n"
             "  enforce_budgets();\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFrontierPushTest, HonorsWaiver) {
  write_file("src/search/beam.cpp",
             "void Beam::restore(Node n) {\n"
             "  log_restore(n);\n"
             "  frontier_.insert(std::move(n));  "
             "// ppg-lint: allow(unbounded-frontier-push) re-inserts a "
             "popped node\n"
             "  log_frontier();\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// The rule must keep guarding the real push site whatever the frontier's
// member or container is called: with its budget checks renamed away,
// the real src/search/ordered.cpp has to produce a finding.
TEST_F(LintFrontierPushTest, RecognisesRealOrderedSearchPush) {
  std::ifstream in(std::string(PPG_SOURCE_DIR) + "/src/search/ordered.cpp");
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  std::string src = body.str();
  for (const std::string token : {"max_nodes", "cache_bytes",
                                  "enforce_budgets"})
    for (std::size_t p = src.find(token); p != std::string::npos;
         p = src.find(token, p))
      src.replace(p, token.size(), "unchecked");
  write_file("src/search/ordered.cpp", src);
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/search/ordered.cpp:"), std::string::npos)
      << run.output;
}

}  // namespace
