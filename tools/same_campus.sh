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
# six match and 2 on a usage or build error. When the telemetry file
# differs it also names each counter, gauge and histogram key that moved,
# with both values; when the Chrome trace differs, each (kind, module)
# whose event count moved (both need python3). The run is seeded, so a change
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

# explain telemetry|chrome <rev file> <tree file>: prints what moved between
# the two runs' telemetry files (each metric key whose value differs) or
# Chrome traces (the event count of each (kind, module) that differs). The
# Chrome trace holds every recorded event, while the telemetry file keeps
# only the ring's newest ones, so event counts come from the Chrome trace.
explain() {
  command -v python3 >/dev/null 2>&1 || return 0
  python3 - "$@" <<'PY'
import collections, json, sys

kind, rev, tree = sys.argv[1], json.load(open(sys.argv[2])), json.load(open(sys.argv[3]))

def fields(value):
    # One metric's value as {field: scalar}; histogram buckets by bound.
    if not isinstance(value, dict):
        return {"": value}
    out = {}
    for field, item in value.items():
        if field == "buckets":
            out.update({"le=%s" % b["le"]: b["count"] for b in item})
        else:
            out[field] = item
    return out

def show(label, a, b):
    print("  %s: %s -> %s" % (label, "absent" if a is None else a, "absent" if b is None else b))

if kind == "telemetry":
    for section in ("counters", "gauges", "histograms"):
        a, b = rev.get(section, {}), tree.get(section, {})
        for key in sorted(set(a) | set(b)):
            fa, fb = fields(a.get(key, {})), fields(b.get(key, {}))
            for field in dict.fromkeys(list(fa) + list(fb)):
                if fa.get(field) != fb.get(field):
                    show(" ".join(x for x in (section, key, field) if x), fa.get(field),
                         fb.get(field))
else:
    count = lambda doc: collections.Counter((e["cat"], e["name"]) for e in doc["traceEvents"])
    a, b = count(rev), count(tree)
    for kind_module in sorted(set(a) | set(b)):
        if a[kind_module] != b[kind_module]:
            show("trace events kind=%s module=%s" % kind_module, a[kind_module], b[kind_module])
PY
}

status=0
for f in $files; do
  if ! cmp -s "$work/out-rev/$f" "$work/out-tree/$f"; then
    echo "same_campus: $f differs between $rev and the working tree"
    cmp "$work/out-rev/$f" "$work/out-tree/$f" || true
    case $f in
      fremont-telemetry.json) explain telemetry "$work/out-rev/$f" "$work/out-tree/$f" || true ;;
      fremont-chrome-trace.json) explain chrome "$work/out-rev/$f" "$work/out-tree/$f" || true ;;
    esac
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "same_campus: all six outputs byte-identical to $rev"
fi
exit "$status"
