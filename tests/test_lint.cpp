// Self-test for tools/lint/tilespmspv_lint: the seeded-violation fixtures
// must each be flagged with exactly their expected rule, and the real tree
// must lint clean — the same contract tests/test_validate.cpp pins for
// tilespmspv_validate --suite. The linter is a standalone binary, so these
// tests shell out to it; paths are baked in by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

int run(const std::string& args) {
  const std::string cmd = std::string(TILESPMSPV_LINT_BIN) + " " + args;
  const int status = std::system(cmd.c_str());
#if defined(_WIN32)
  return status;
#else
  return WEXITSTATUS(status);
#endif
}

const char* kFixtures = TILESPMSPV_LINT_FIXTURES;

}  // namespace

TEST(Lint, SuiteModePassesOnSeededFixtures) {
  EXPECT_EQ(run(std::string("--suite ") + kFixtures), 0);
}

TEST(Lint, RealTreeIsClean) {
  EXPECT_EQ(run(std::string("--root ") + TILESPMSPV_REPO_ROOT), 0);
}

TEST(Lint, EachSeededFixtureExitsNonzero) {
  int checked = 0;
  for (const auto& ent : fs::directory_iterator(kFixtures)) {
    if (!ent.is_directory()) continue;
    const std::string name = ent.path().filename().string();
    const int rc = run(std::string("--root ") + ent.path().string());
    // Expected rule = dirname up to the first '.'; "clean" trees (including
    // the suppression round-trip tree) must lint clean.
    if (name.substr(0, name.find('.')) == "clean") {
      EXPECT_EQ(rc, 0) << name;
    } else {
      EXPECT_EQ(rc, 1) << name;
    }
    ++checked;
  }
  // The rule catalogue: at least one fixture per rule plus the clean trees.
  EXPECT_GE(checked, 20);
}

TEST(Lint, FixturesCoverEveryRule) {
  const std::vector<std::string> rules = {
      "simd-twin",    "twin-fuzz",    "counter-doc",     "validator-fields",
      "hot-path",     "raw-atomic",   "core-atomic-add", "include-hygiene",
      "mapped-taint", "shared-write", "lock-discipline", "clean"};
  for (const std::string& rule : rules) {
    bool found = false;
    for (const auto& ent : fs::directory_iterator(kFixtures)) {
      if (!ent.is_directory()) continue;
      const std::string name = ent.path().filename().string();
      if (name.substr(0, name.find('.')) == rule) found = true;
    }
    EXPECT_TRUE(found) << "no fixture seeds rule '" << rule << "'";
  }
}

TEST(Lint, SuppressionRoundTrip) {
  // lint:gated / lint:owned with a written reason suppress the finding;
  // the same annotations with empty parentheses are themselves findings.
  const std::string fx = kFixtures;
  EXPECT_EQ(run("--root " + fx + "/clean.suppressions"), 0);
  EXPECT_EQ(run("--root " + fx + "/mapped-taint.gated-empty-reason"), 1);
  EXPECT_EQ(run("--root " + fx + "/shared-write.empty-owned-reason"), 1);
}

TEST(Lint, Pr9OverflowWrapIsFlagged) {
  // The multiplicative section-size check that count=2^61 wrapped in PR 9
  // must stay a mapped-taint finding.
  const std::string fx = kFixtures;
  EXPECT_EQ(run("--root " + fx + "/mapped-taint.count-overflow-wrap"), 1);
}

TEST(Lint, UsageErrorsExitTwo) {
  EXPECT_EQ(run("--no-such-flag"), 2);
  EXPECT_EQ(run("--root /nonexistent/definitely-not-a-tree"), 2);
}
