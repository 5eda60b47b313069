#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 suite, measured with GCC's gcov.
#
#   scripts/coverage.sh
#
# Configures a Debug build with --coverage in build-coverage, a tree of its
# own so the Release build is untouched, runs every ctest test there, and
# runs gcov-12 (the gcov of the compiler in use) over every object. It
# prints line coverage per file of src/, then each line of src/core and
# src/tcp that no test executed. Lines of a TFO_LOG statement are left out
# of that list: logging is not behaviour. The exit status is ctest's.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/build-coverage

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build" -j"$(nproc)" >/dev/null
find "$build" -name '*.gcda' -delete
status=0
ctest --test-dir "$build" -j"$(nproc)" >"$build/coverage-ctest.log" 2>&1 || status=$?
tail -n 3 "$build/coverage-ctest.log" | sed '/^$/d'

out="$build/gcov-json"
rm -rf "$out" && mkdir -p "$out"
# One gcov run per object directory, each writing into a directory of its
# own (gcov names its output after the source file, which can repeat).
n=0
find "$build" -name '*.gcda' -printf '%h\n' | sort -u | while read -r dir; do
  n=$((n + 1))
  mkdir -p "$out/$n"
  (cd "$out/$n" && gcov-12 --json-format --object-directory "$dir" "$dir"/*.gcda >/dev/null 2>&1) || true
done

python3 - "$root" "$out" <<'EOF'
import glob, gzip, json, os, sys

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
counts = {}  # file -> {line: executions}, summed over every object
for path in glob.glob(os.path.join(out, "*", "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        data = json.load(f)
    cwd = data.get("current_working_directory", "")
    for entry in data["files"]:
        name = os.path.normpath(os.path.join(cwd, entry["file"]))
        if not name.startswith(src):
            continue
        lines = counts.setdefault(name, {})
        for ln in entry["lines"]:
            lines[ln["line_number"]] = lines.get(ln["line_number"], 0) + ln["count"]

def log_lines(name):
    """Line numbers of TFO_LOG statements, continuation lines included."""
    skip, inside = set(), False
    with open(name) as f:
        for no, text in enumerate(f, 1):
            if "TFO_LOG" in text:
                inside = True
            if inside:
                skip.add(no)
                if ";" in text:
                    inside = False
    return skip

print(f"\n{'file':<44} {'lines':>6} {'hit':>6} {'cover':>7}")
totals = {}
for name in sorted(counts):
    lines = counts[name]
    hit = sum(1 for c in lines.values() if c > 0)
    rel = os.path.relpath(name, root)
    print(f"{rel:<44} {len(lines):>6} {hit:>6} {100.0 * hit / max(len(lines), 1):>6.1f}%")
    top = os.path.dirname(rel)
    t = totals.setdefault(top, [0, 0])
    t[0] += len(lines)
    t[1] += hit
print()
for top, (n, hit) in sorted(totals.items()):
    print(f"{top + '/':<44} {n:>6} {hit:>6} {100.0 * hit / max(n, 1):>6.1f}%")

print("\nunreached non-log lines of src/core and src/tcp:")
for name in sorted(counts):
    rel = os.path.relpath(name, root)
    if not rel.startswith(("src/core/", "src/tcp/")):
        continue
    skip = log_lines(name)
    with open(name) as f:
        text = f.read().splitlines()
    for no in sorted(n for n, c in counts[name].items() if c == 0 and n not in skip):
        print(f"  {rel}:{no}: {text[no - 1].strip()}")
EOF
exit "$status"
