#!/usr/bin/env bash
# Run-store checkpoint/resume smoke, run by CI's `resume-smoke` job once
# per grid: a sweep killed mid-run and resumed with -resume must write
# bytes identical to an uninterrupted run, and a cache-warm repeat must
# execute zero simulation cells.
#
#   bash scripts/resume_smoke.sh <bundler-bench> <dir> <cells> <sweep args...>
#
# <sweep args> select the sweep (-sweep, -grid, and -sweepexp/-config as
# needed); <cells> is its grid size. Outputs (full.json, resumed.json,
# warm.json, warm.log) and the run store go under <dir>.
set -euo pipefail
bench=$1 dir=$2 cells=$3
shift 3
mkdir -p "$dir"

echo "== uninterrupted reference sweep"
"$bench" "$@" -parallel 2 -out "$dir/full.json"

echo "== start a checkpointed sweep and kill it mid-run"
timeout --signal=INT 3 "$bench" "$@" -parallel 2 -store "$dir/store" -out /dev/null || true

echo "== resume and require byte-identical output"
"$bench" "$@" -parallel 2 -store "$dir/store" -resume -out "$dir/resumed.json"
cmp "$dir/full.json" "$dir/resumed.json"
echo "resumed output is byte-identical"

echo "== cache-warm re-run must execute zero cells"
"$bench" "$@" -parallel 2 -store "$dir/store" -resume -out "$dir/warm.json" 2>"$dir/warm.log"
cmp "$dir/full.json" "$dir/warm.json"
grep -q "$cells cached, 0 executed" "$dir/warm.log"
echo "warm re-run simulated nothing"
