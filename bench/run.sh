#!/bin/sh
# Builds asmp-bench from the checkout it runs in, then runs it with the
# given arguments. Run it from the repository root:
#
#   sh bench/run.sh -workload regen-cold -seed 1 -seconds 20 -trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build
# in the repository root, so a run reads and writes nothing outside the
# checkout (apart from the Go toolchain it reads).
set -eu
if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -d cmd/asmp-run ]; then
	echo "asmp-bench: run from the root of an asmp checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd bench && go build -o "$out/asmp-bench" ./cmd/asmp-bench)
exec "$out/asmp-bench" "$@"
