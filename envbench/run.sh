#!/usr/bin/env bash
# Builds envbench from the checkout it is run in, then runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash envbench/run.sh --workload fed-query --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the compiler's temporary files, the
# binary, and each run's files.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C envbench -o "$out/bin/envbench" . >&2
exec "$out/bin/envbench" "$@"
