#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind (binary, Go build cache, telemetry)
# goes under .bench_build/ in the checkout, so a run touches nothing
# outside it. Arguments are passed through to the program.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	go build -o "$build/bravobench" .
)
cd "$root"
exec "$build/bravobench" "$@"
