#!/usr/bin/env bash
# CLI smoke recipes, run by CI's `test` job after `go test ./...` (which
# already validates, smoke-runs and hash-pins every file in
# examples/configs/ through internal/topo): the same configs and the
# README's quickstart driven through the built commands. Run from the
# repository root; everything it writes goes to a temp directory.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bundler-bench" ./cmd/bundler-bench
go build -o "$tmp/bundler-report" ./cmd/bundler-report
bench="$tmp/bundler-bench"

echo "== load every shipped config, run one"
"$bench" -config examples/configs -experiment chain -set requests=300

echo "== the mesh config shadows the built-in mesh"
"$bench" -config examples/configs/mesh.json -experiment mesh -set sites=2,requests=200

# README's quickstart for one interactive run and for its structured
# result (a one-point sweep bundler-report can diff).
echo "== one interactive fct run"
"$bench" -experiment fct -set mode=bundler,sched=sfq,requests=500

echo "== one-point sweep, diffed against itself"
"$bench" -sweep -sweepexp fct -grid "requests=500" -out "$tmp/run.json"
"$tmp/bundler-report" "$tmp/run.json" "$tmp/run.json"

# A name the simulator does not know is bad input, not a crash: exit
# non-zero with a one-line message, never a goroutine trace.
echo "== fct rejects unknown names"
for kv in mode=bogus alg=bogus sched=bogus endhost=bogus; do
	if "$bench" -experiment fct -set "$kv" >"$tmp/bogus.txt" 2>&1; then
		echo "fct -set $kv was accepted"; exit 1
	fi
	if grep -q goroutine "$tmp/bogus.txt"; then
		echo "fct -set $kv panicked:"; cat "$tmp/bogus.txt"; exit 1
	fi
	cat "$tmp/bogus.txt"
done
echo "cli smoke ok"
