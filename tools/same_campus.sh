#!/bin/sh
# Checks that the working tree's campus_discovery reproduces <rev>'s outputs
# byte for byte.
#
#   tools/same_campus.sh <rev>        # e.g. tools/same_campus.sh HEAD~1
#
# Builds campus_discovery twice in a temporary directory — once from an
# export of <rev> (git archive), once from the working tree — runs each into
# a fresh output directory, and compares all six output files with cmp.
# Prints every file that differs and exits 1 if any does; exits 0 when all
# six match and 2 on a usage or build error. The run is seeded, so a change
# that promises "nothing simulated moved" must pass against its parent. It
# is a tool, not a CI gate: a change that alters behaviour legitimately
# changes the outputs. Set TMPDIR to choose where the builds go.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
files="fremont-journal.bin fremont-schedule.txt fremont-topology.snm fremont-topology.dot
       fremont-telemetry.json fremont-chrome-trace.json"

if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
  echo "same_campus: unknown revision '$rev'" >&2
  exit 2
fi

if command -v ninja >/dev/null 2>&1; then
  generator="-G Ninja"
else
  generator=""
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/same_campus.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 2' INT TERM

# Builds campus_discovery from source tree $1 into build directory $2.
build() {
  # shellcheck disable=SC2086  # $generator is intentionally word-split
  if ! cmake -S "$1" -B "$2" $generator -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$2.log" 2>&1 ||
     ! cmake --build "$2" -j "$(nproc)" --target campus_discovery >>"$2.log" 2>&1; then
    echo "same_campus: build of $1 failed; log follows" >&2
    cat "$2.log" >&2
    exit 2
  fi
}

mkdir "$work/rev"
git -C "$root" archive "$rev" | tar -x -C "$work/rev"
echo "same_campus: building $rev and the working tree in $work"
build "$work/rev" "$work/build-rev"
build "$root" "$work/build-tree"

for side in rev tree; do
  mkdir "$work/out-$side"
  if ! "$work/build-$side/examples/campus_discovery" "$work/out-$side" >"$work/run-$side.log" 2>&1; then
    echo "same_campus: campus_discovery ($side) failed; log follows" >&2
    cat "$work/run-$side.log" >&2
    exit 2
  fi
done

status=0
for f in $files; do
  if ! cmp -s "$work/out-rev/$f" "$work/out-tree/$f"; then
    echo "same_campus: $f differs between $rev and the working tree"
    cmp "$work/out-rev/$f" "$work/out-tree/$f" || true
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "same_campus: all six outputs byte-identical to $rev"
fi
exit "$status"
