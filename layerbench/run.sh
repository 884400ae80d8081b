#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Every build artefact (Go build cache, module cache,
# binary) and every trace lands in $CARGO_TARGET_DIR (default .bench_build)
# under the current directory, so a run writes nothing outside the checkout.
# Run it from the repository root: bash layerbench/run.sh --workload serve
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/layerbench" .) >&2
exec "$out/layerbench" -trace-dir "$out" "$@"
