#!/usr/bin/env bash
# Builds cmd/minserve and the benchmark from source, then runs one
# workload. All arguments pass through to the benchmark, e.g.
#
#	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch (job checkpoints,
# span files) stay under .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/minserve" ]; then
	echo "run.sh: $root holds no minequiv checkout to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local
cd "$root"
go build -o "$out/minserve" ./cmd/minserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/minserve" -scratch "$out/runs" "$@"
