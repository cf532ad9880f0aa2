#!/usr/bin/env bash
# Builds the userv6 end-to-end benchmark and runs it. Run from the root
# of a userv6 checkout:
#
#   bash perfbench/run.sh --workload analyze-file-w2 --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain, the benchmark and the programs under test
# write stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/userv6gen || ! -d perfbench ]]; then
	echo "perfbench: run from the root of a userv6 checkout" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
