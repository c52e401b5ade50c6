#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload burst --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (binary, Go build cache, spans) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
