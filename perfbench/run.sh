#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, span files and per-seed check state live
# under .bench_build/perfbench, inside the checkout.
set -euo pipefail

out=.bench_build/perfbench
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export GOMODCACHE="$PWD/$out/modcache"
export GOTOOLCHAIN=local
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$PWD/$out/config"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
