#!/usr/bin/env bash
# Builds aquaperf from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#   bash cmd/aquaperf/run.sh --workload link --seed 1 --seconds 12 --trace 0
#
# The build, the Go caches and the span file all stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build), and nothing is fetched
# from the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

(cd cmd/aquaperf && go build -o "$out/aquaperf" .)
exec "$out/aquaperf" -spans "$out/spans.jsonl" "$@"
