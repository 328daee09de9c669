#!/usr/bin/env bash
# Builds cmd/auroranode and the benchmark from the checkout it runs in, then
# runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload relay --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes lands under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/auroranode" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/auroranode here)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
mkdir -p "$out/bin"
go build -o "$out/bin/auroranode" ./cmd/auroranode
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -node "$out/bin/auroranode" -work "$out/perfbench" -root "$root" "$@"
