#!/usr/bin/env bash
# Builds mamps-serve, mamps-runs and the benchmark from the checkout it is
# run in, then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOTOOLCHAIN=local GOTELEMETRY=off
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	[[ ${args[i]} == --trace && ${args[i + 1]:-0} == 1 ]] && trace=1
done
go build -o "$out/mamps-serve" ./cmd/mamps-serve >&2
go build -o "$out/mamps-runs" ./cmd/mamps-runs >&2
(cd perfbench && go build -o "$out/perfbench" . >&2)
if [[ $trace == 1 ]]; then
	(cd perfbench && go build -o "$out/probe" ./probe >&2)
fi
exec "$out/perfbench" -bin "$out" "$@"
