#!/usr/bin/env bash
# Builds perfbench and the dufpd daemon from the checkout it is run in,
# into .bench_build/, then runs perfbench. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/dufpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dufp checkout (go.mod and cmd/dufpd not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters and env file under the
# user config dir; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/dufpd" ./cmd/dufpd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dufpd "$out/dufpd" --work "$out/work" "$@"
