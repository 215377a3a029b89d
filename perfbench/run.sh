#!/usr/bin/env bash
# Builds the benchmark and qoesimd from the checkout's sources, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/qoesimd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/qoesimd and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"

gobuild() {
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build "$@"
}

gobuild -o "$out/qoesimd" ./cmd/qoesimd
(cd perfbench && gobuild -o "$out/perfbench" .)

exec "$out/perfbench" -qoesimd "$out/qoesimd" -workdir "$out/perfbench-work" "$@"
