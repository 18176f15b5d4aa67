#!/usr/bin/env bash
# Builds bpid, the ladder child and the benchmark harness from the checkout in
# the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload ladder|serve|batch --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, Go's build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bpid || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a bpi checkout (go.mod, cmd/bpid, perfbench/)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$PWD/$out"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The go command keeps its build cache, module cache and telemetry under
# these; none of them may land outside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/bpid" ./cmd/bpid >&2
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/ladderchild" ./ladderchild) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
