// fremont_lint's own coverage: each seeded fixture violation must be
// flagged, the clean fixture and the live tree must pass. Fixture trees live
// in tests/lint_fixtures/ and mirror the repo layout the rules key on.

#include "tools/fremont_lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace fremont::lint {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(FREMONT_LINT_FIXTURES) + "/" + name;
}

std::string Dump(const std::vector<Issue>& issues) {
  std::string out;
  for (const Issue& issue : issues) {
    out += issue.Format() + "\n";
  }
  return out;
}

bool AnyMessageContains(const std::vector<Issue>& issues, const std::string& needle) {
  for (const Issue& issue : issues) {
    if (issue.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(StripComments, RemovesCommentsKeepsStringsAndLines) {
  const std::string src =
      "int a; // trailing \"quoted\"\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"not // a comment\";\n";
  const std::string out = StripComments(src);
  EXPECT_EQ(out.find("trailing"), std::string::npos);
  EXPECT_EQ(out.find("spanning"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  EXPECT_NE(out.find("not // a comment"), std::string::npos);
  // Newlines survive so line numbers stay stable.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
}

TEST(FremontLint, CleanFixturePassesAllRules) {
  const std::vector<Issue> issues = RunAllRules(Fixture("clean"));
  EXPECT_TRUE(issues.empty()) << Dump(issues);
}

TEST(FremontLint, RawMetricLiteralIsFlagged) {
  const std::vector<Issue> issues = CheckMetricNameLiterals(Fixture("raw_metric"));
  ASSERT_EQ(issues.size(), 1u) << Dump(issues);
  EXPECT_EQ(issues[0].rule, "metric-name-literal");
  EXPECT_EQ(issues[0].file, "src/telemetry/export.cc");
  EXPECT_GT(issues[0].line, 0);
  EXPECT_TRUE(AnyMessageContains(issues, "fixture/stores_total")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("raw_metric")).empty());
}

TEST(FremontLint, UnguardedScheduleIsFlagged) {
  const std::vector<Issue> issues = CheckUnguardedSchedules(Fixture("unguarded_schedule"));
  ASSERT_EQ(issues.size(), 1u) << Dump(issues);
  EXPECT_EQ(issues[0].rule, "unguarded-schedule");
  EXPECT_EQ(issues[0].file, "src/explorer/probe.cc");
  EXPECT_TRUE(AnyMessageContains(issues, "ScheduleGuarded")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("unguarded_schedule")).empty());
}

TEST(FremontLint, RawThreadOutsideRuntimeIsFlagged) {
  const std::vector<Issue> issues = CheckRawThreads(Fixture("raw_thread"));
  ASSERT_EQ(issues.size(), 2u) << Dump(issues);  // std::thread + detach().
  for (const Issue& issue : issues) {
    EXPECT_EQ(issue.rule, "raw-thread");
    // Only the manager file: the runtime-dir pool is the sanctioned home.
    EXPECT_EQ(issue.file, "src/manager/poller.cc");
    EXPECT_GT(issue.line, 0);
  }
  EXPECT_TRUE(AnyMessageContains(issues, "WorkerPool")) << Dump(issues);
  EXPECT_TRUE(AnyMessageContains(issues, "detach")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("raw_thread")).empty());
  EXPECT_TRUE(CheckRawThreads(Fixture("clean")).empty());
}

TEST(FremontLint, RawMutexMemberIsFlagged) {
  const std::vector<Issue> issues = CheckGuardAnnotations(Fixture("raw_mutex_member"));
  ASSERT_EQ(issues.size(), 1u) << Dump(issues);
  EXPECT_EQ(issues[0].rule, "guard-annotations");
  EXPECT_EQ(issues[0].file, "src/serve/cache.h");
  EXPECT_GT(issues[0].line, 0);
  EXPECT_TRUE(AnyMessageContains(issues, "std::mutex")) << Dump(issues);
  EXPECT_TRUE(AnyMessageContains(issues, "thread_annotations.h")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("raw_mutex_member")).empty());
}

TEST(FremontLint, UnguardedMemberIsFlagged) {
  const std::vector<Issue> issues = CheckGuardAnnotations(Fixture("unguarded_member"));
  ASSERT_EQ(issues.size(), 1u) << Dump(issues);
  EXPECT_EQ(issues[0].rule, "guard-annotations");
  EXPECT_EQ(issues[0].file, "src/telemetry/registry.h");
  EXPECT_GT(issues[0].line, 0);
  // Only the member with no synchronization story; the guarded, atomic,
  // const, and `// lint: unguarded(...)`-tagged siblings all pass.
  EXPECT_TRUE(AnyMessageContains(issues, "count_")) << Dump(issues);
  EXPECT_TRUE(AnyMessageContains(issues, "Registry")) << Dump(issues);
  EXPECT_FALSE(AnyMessageContains(issues, "scratch_")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("unguarded_member")).empty());
  // The clean fixture's annotated class exercises every exemption.
  EXPECT_TRUE(CheckGuardAnnotations(Fixture("clean")).empty());
}

TEST(FremontLint, LockOrderInversionIsFlagged) {
  const std::vector<Issue> issues = CheckLockOrder(Fixture("lock_order_inversion"));
  ASSERT_EQ(issues.size(), 1u) << Dump(issues);
  EXPECT_EQ(issues[0].rule, "lock-order");
  EXPECT_EQ(issues[0].file, "src/serve/service.cc");
  EXPECT_GT(issues[0].line, 0);
  EXPECT_TRUE(AnyMessageContains(issues, "serve.refresh_mu_")) << Dump(issues);
  EXPECT_TRUE(AnyMessageContains(issues, "serve.sub_mu_")) << Dump(issues);
  EXPECT_FALSE(RunAllRules(Fixture("lock_order_inversion")).empty());
  // The clean fixture declares the same hierarchy and nests correctly.
  EXPECT_TRUE(CheckLockOrder(Fixture("clean")).empty());
}

// The contract the tree ships under: the real repo lints clean. If this
// fails, either real drift crept in (fix the code) or a rule got stricter
// (fix the rule or migrate the tree in the same PR).
TEST(FremontLint, LiveTreeIsClean) {
  const std::vector<Issue> issues = RunAllRules(FREMONT_LINT_REPO_ROOT);
  EXPECT_TRUE(issues.empty()) << Dump(issues);
}

}  // namespace
}  // namespace fremont::lint
