#!/bin/sh
# Check the perf baselines CI gates against. For every committed
# BENCH_*.json that .github/workflows/ci.yml copies aside as a baseline
# (`cp BENCH_x.json copy.json`), assert that:
#   1. the file is tracked by git, so a fresh clone has it (.gitignore
#      ignores BENCH_*.json unless a whitelist line names the file);
#   2. it holds an entry for every `--bench NAME` that a
#      `tools/compare_bench.py copy.json ...` invocation gates on.
# Exits non-zero listing every problem; CI's docs job runs this on every
# push, and it is runnable locally from the repo root:
#
#   sh tools/check_bench_baselines.sh [path/to/ci.yml]
set -u
cd "$(dirname "$0")/.." || exit 2
ci=${1:-.github/workflows/ci.yml}
[ -f "$ci" ] || { echo "check_bench_baselines: no $ci"; exit 2; }

# One "baseline<TAB>source" line per `cp BENCH_*.json COPY`, and one
# "baseline<TAB>bench" line per gated --bench. A compare_bench.py call's
# options may span continuation lines, so the current baseline holds until
# the next step starts (a "- name:" or "- uses:" line).
pairs=$(awk '
  /^[[:space:]]*- (name|uses):/ { base = "" }
  {
    for (i = 1; i <= NF; ++i) {
      if ($i == "cp" && $(i + 1) ~ /^BENCH_.*\.json$/) {
        print "copy\t" $(i + 2) "\t" $(i + 1)
      } else if ($i ~ /compare_bench\.py$/) {
        base = $(i + 1)
      } else if ($i == "--bench" && base != "") {
        print "bench\t" base "\t" $(i + 1)
      }
    }
  }' "$ci")

fail=0
sources=$(printf '%s\n' "$pairs" | awk -F '\t' '$1 == "copy" { print $3 }' |
          sort -u)
for src in $sources; do
  if ! git ls-files --error-unmatch "$src" > /dev/null 2>&1; then
    echo "baseline $src is copied by $ci but not tracked by git"
    fail=1
  fi
done

checked=0
for line in $(printf '%s\n' "$pairs" | awk -F '\t' '$1 == "bench" {
                print $2 "|" $3 }' | sort -u); do
  base=${line%%|*}
  bench=${line#*|}
  case "$base" in
    BENCH_*.json) src=$base ;;
    *) src=$(printf '%s\n' "$pairs" |
             awk -F '\t' -v b="$base" '$1 == "copy" && $2 == b { print $3 }' |
             tail -n 1) ;;
  esac
  if [ -z "$src" ]; then
    echo "compare_bench.py baseline $base is not a copy of a BENCH_*.json"
    fail=1
    continue
  fi
  checked=$((checked + 1))
  if [ ! -f "$src" ]; then
    echo "baseline $src is missing (gates --bench $bench)"
    fail=1
  elif ! awk -v want="\"$bench\"" '
         { s = $0; gsub(/"name":[[:space:]]*/, "\"name\":", s) }
         index(s, "\"name\":" want) { found = 1 }
         END { exit !found }' "$src"; then
    echo "baseline $src has no entry named $bench"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_bench_baselines: FAILED"
  exit 1
fi
echo "check_bench_baselines: OK ($checked gated benches across" \
     "$(printf '%s\n' "$sources" | grep -c .) tracked baselines)"
