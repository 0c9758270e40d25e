// fremont_lint: repo-specific correctness lint.
//
// A lightweight line/token scanner over src/ (no compiler dependency) that
// enforces the contracts Fremont's subsystems share by convention and the
// compiler cannot check. Rules 1 to 4 moved into the compiler (DESIGN.md
// §12): RequestType coverage is -Werror=switch / -Werror=switch-enum over
// exhaustive switches; metric and span names are telemetry::MetricName /
// SpanName, which a string literal does not convert to; and an explorer
// module receives its host as an opaque Vantage that only ExplorerModule
// opens, so ScheduleGuarded is its one way onto the event queue. The
// remaining rules keep their numbers:
//
//  5. raw-thread — OS threads may only be created inside src/sim/runtime/
//     (the WorkerPool owns thread lifetime, shutdown, and idle accounting);
//     std::thread / std::jthread / pthread_create anywhere else under src/,
//     and detach() calls anywhere, are flagged. A stray thread outside the
//     runtime bypasses the window-barrier synchronization the sharded
//     executor's determinism contract rests on, and a detached thread can
//     outlive the Simulator it touches.
//
//  6. guard-annotations — the thread-safety-annotated subsystems
//     (src/journal, src/serve, src/telemetry, src/sim/runtime) must use the
//     annotated wrappers from src/util/thread_annotations.h. Raw
//     std::mutex / std::shared_mutex / std::condition_variable members are
//     forbidden there (the wrappers carry the Clang capability attributes
//     the analysis keys on), and every mutable data member of a class that
//     owns a Mutex/SharedMutex must either carry FREMONT_GUARDED_BY(...) /
//     FREMONT_PT_GUARDED_BY(...), be a std::atomic, be const, or carry an
//     explicit `// lint: unguarded(<reason>)` escape-hatch comment. Catches
//     members added to a locked class without a stated synchronization
//     story — the gap -Wthread-safety only closes on Clang builds.
//
//  7. lock-order — tools/fremont_lint/lock_order.txt declares the repo's
//     lock hierarchy as `A > B` lines (A is acquired before B; names are
//     `<subsystem>.<member>`). Every function body in the annotated
//     subsystems that acquires two guards via the scoped wrappers
//     (MutexLock / ReaderMutexLock / WriterMutexLock) is checked against
//     the declared pairs; acquiring A while B is held when the hierarchy
//     says `A > B` is flagged as an inversion. Catches deadlock-shaped
//     nesting that -Wthread-safety's ACQUIRED_AFTER only sees for mutexes
//     in the same class.
//
// The binary (tools/fremont_lint) runs all rules against a repo root and
// exits nonzero on any finding; the library entry points below let the unit
// test drive each rule against fixture trees.

#ifndef TOOLS_FREMONT_LINT_LINT_H_
#define TOOLS_FREMONT_LINT_LINT_H_

#include <string>
#include <vector>

namespace fremont::lint {

struct Issue {
  std::string file;  // Repo-root-relative path.
  int line = 0;      // 1-based; 0 when the issue is file-level.
  std::string rule;  // "raw-thread", "guard-annotations", "lock-order".
  std::string message;

  std::string Format() const;  // "file:line: [rule] message"
};

// Replaces //- and /*-style comments with spaces (newlines kept, so line
// numbers survive) while leaving string/char literal contents intact.
// Exposed for tests.
std::string StripComments(const std::string& source);

// Individual rules; `root` is the repo root holding src/.
std::vector<Issue> CheckRawThreads(const std::string& root);
std::vector<Issue> CheckGuardAnnotations(const std::string& root);
std::vector<Issue> CheckLockOrder(const std::string& root);

// All rules, in the order above.
std::vector<Issue> RunAllRules(const std::string& root);

}  // namespace fremont::lint

#endif  // TOOLS_FREMONT_LINT_LINT_H_
