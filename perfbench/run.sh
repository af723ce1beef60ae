#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve|adapt|learn --seed N --seconds S --trace 0|1
#
# Build products and the Go build cache stay in .bench_build at the root
# of the checkout. The harness exits non-zero without printing a result
# when the checkout does not hold the agenp module it benchmarks.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/agenpd/main.go" ]]; then
	echo "perfbench: $root is not a checkout of the agenp module" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/perfbench"
go build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
