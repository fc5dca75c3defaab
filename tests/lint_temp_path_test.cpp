// Golden-fixture tests for ppg_lint's fixed-temp-path rule: under tests/,
// temp_directory_path() and "/tmp/..." literals are findings outside
// tests/test_util.h (whose testing::TempDir is the per-process, per-case
// replacement), unless the line carries a waiver. Same throwaway-tree
// harness as the other lint fixtures.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "test_util.h"

namespace {

namespace fs = std::filesystem;

struct LintRun {
  int exit_code = -1;
  std::string output;
};

class LintTempPathTest : public ::testing::Test {
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

TEST_F(LintTempPathTest, FiresOnTempDirectoryPath) {
  write_file("tests/cache_test.cpp",
             "void set_up() {\n"
             "  const auto dir = std::filesystem::temp_directory_path() /\n"
             "                   \"cache\";\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("tests/cache_test.cpp:2: [fixed-temp-path]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintTempPathTest, FiresOnTmpLiteral) {
  write_file("tests/ckpt_test.cpp",
             "void save_it(Model& m) {\n"
             "  m.save(\"/tmp/model.ckpt\");\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("tests/ckpt_test.cpp:2: [fixed-temp-path]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintTempPathTest, CommentsAndEscapedQuotesDoNotFire) {
  // Prose in comments and a fixture's escaped quote are not temp paths:
  // only code and the opening quote of a real literal count.
  write_file("tests/prose_test.cpp",
             "// never use temp_directory_path() or \"/tmp/x\" here\n"
             "const char* kFixture = \"m.save(\\\"/tmp/x\\\");\";\n"
             "const char* kCall = \"temp_directory_path()\";\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintTempPathTest, ExemptsTestUtilAndOtherDirectories) {
  write_file("tests/test_util.h",
             "#pragma once\n"
             "inline auto base() {\n"
             "  return std::filesystem::temp_directory_path();\n"
             "}\n");
  write_file("src/common/paths.cpp",
             "const char* kDefault = \"/tmp/ppg\";\n"
             "auto base() { return std::filesystem::temp_directory_path(); }\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintTempPathTest, HonorsWaiver) {
  write_file("tests/fixture_test.cpp",
             "const auto cache = std::filesystem::temp_directory_path();  "
             "// ppg-lint: allow(fixed-temp-path) shared fixture cache\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
