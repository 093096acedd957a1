#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash astreabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and every
# other build output go under .bench_build/ there, and the traced run's span
# file under .bench_out/. The build needs the repository's go.mod one level
# above this directory; without it the script fails before printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
# The go command keeps its telemetry under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/astreabench" .)
exec "$build/astreabench" "$@"
