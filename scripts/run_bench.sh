#!/bin/sh
# Runs the perf_pipeline google-benchmark harness and writes a machine-readable baseline
# JSON (repo root by default), for before/after comparison of pipeline
# optimisations. The output composes google-benchmark's own JSON with
# the harness's dmm-stats document (docs/OBSERVABILITY.md) under a
# "dmm_stats" key, so one file carries both per-benchmark timings and
# whole-run phase/counter aggregates.
#
# Usage: scripts/run_bench.sh [options] [out.json] [extra benchmark args...]
#   --label <name>     write BENCH_<name>.json instead of BENCH_baseline.json
#   --compare <base>   after the run, gate the fresh output against an
#                      existing baseline via scripts/bench_history.py
#                      (exit 1 on a stable-benchmark regression)
#   --threshold <r>    relative slowdown tolerated by --compare
set -e
cd "$(dirname "$0")/.."

SUITE=perf_pipeline
LABEL=""
OUT=""
COMPARE=""
THRESHOLD=""

while [ $# -gt 0 ]; do
  case "$1" in
    --label)
      [ $# -ge 2 ] || { echo "error: --label requires a name" >&2; exit 2; }
      LABEL="$2"; shift 2 ;;
    --label=*)
      LABEL="${1#--label=}"; shift ;;
    --compare)
      [ $# -ge 2 ] || { echo "error: --compare requires a baseline" >&2; exit 2; }
      COMPARE="$2"; shift 2 ;;
    --compare=*)
      COMPARE="${1#--compare=}"; shift ;;
    --threshold)
      [ $# -ge 2 ] || { echo "error: --threshold requires a value" >&2; exit 2; }
      THRESHOLD="$2"; shift 2 ;;
    --threshold=*)
      THRESHOLD="${1#--threshold=}"; shift ;;
    *)
      break ;;
  esac
done

if [ -n "$COMPARE" ] && [ ! -f "$COMPARE" ]; then
  echo "error: --compare baseline $COMPARE does not exist" >&2
  exit 2
fi

if [ -n "$LABEL" ]; then
  OUT="BENCH_${LABEL}.json"
elif [ $# -gt 0 ]; then
  case "$1" in
    -*) ;; # First remaining arg is a benchmark flag, keep the default.
    *) OUT="$1"; shift ;;
  esac
fi
OUT="${OUT:-BENCH_baseline.json}"

if [ ! -f build/CMakeCache.txt ]; then
  echo "error: build/ is not configured; run 'cmake -B build -S .' first" >&2
  exit 2
fi

if [ ! -x "build/bench/$SUITE" ]; then
  echo "building $SUITE..." >&2
  cmake --build build --target "$SUITE" >/dev/null
fi

# google-benchmark does not create missing directories for
# --benchmark_out; make sure the destination exists.
OUT_DIR=$(dirname "$OUT")
[ -d "$OUT_DIR" ] || mkdir -p "$OUT_DIR"

GB_TMP="${OUT}.gbench.tmp"
STATS_TMP="${OUT}.stats.tmp"
trap 'rm -f "$GB_TMP" "$STATS_TMP"' EXIT

"build/bench/$SUITE" \
  --stats-json="$STATS_TMP" \
  --benchmark_out="$GB_TMP" \
  --benchmark_out_format=json \
  "$@"

python3 - "$GB_TMP" "$STATS_TMP" "$OUT" <<'EOF'
import json, sys
gb_path, stats_path, out_path = sys.argv[1:4]
with open(gb_path) as f:
    doc = json.load(f)
with open(stats_path) as f:
    doc["dmm_stats"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF

echo "wrote $OUT" >&2

if [ -n "$COMPARE" ]; then
  if [ -n "$THRESHOLD" ]; then
    python3 scripts/bench_history.py compare "$COMPARE" "$OUT" \
      --threshold "$THRESHOLD"
  else
    python3 scripts/bench_history.py compare "$COMPARE" "$OUT"
  fi
fi
