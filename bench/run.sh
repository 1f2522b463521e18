#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; the driver's
# command (see BENCHMARK.json). Everything the build writes — binary,
# Go build cache, module cache — goes under .bench_build at the root of
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bench"
mkdir -p "$build"

# Rebuild when the binary is missing or any Go source of the checkout
# is newer than it.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(
		cd "$here"
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
			GOFLAGS=-mod=readonly GOTOOLCHAIN=local go build -o "$bin" .
	)
fi

cd "$root"
exec "$bin" "$@"
