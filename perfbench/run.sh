#!/usr/bin/env bash
# Builds parsl-cwl-serve, parsl-cwl-worker, imgtool and the perfbench command
# from this checkout, then runs the benchmark from the checkout root:
#
#   bash perfbench/run.sh --workload expr-scatter-shared --seed 1 --seconds 45 --trace 0
#
# Everything it writes (Go build cache, binaries, per-run temporary
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/parsl-cwl-serve" ]; then
	echo "perfbench: run from the root of a checkout holding the program's sources" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"
export TMPDIR="$build/tmp"
# The go command's cache, module path, config and telemetry files live
# under $HOME and $XDG_CONFIG_HOME by default; point them into the build
# directory too.
gocmd() {
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off \
		GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 go "$@"
}

# Rebuild only when a source file changed since the last build.
stamp=$(find "$root" -path "$build" -prune -o -type f \( -name '*.go' -o -name 'go.mod' \) -print0 |
	sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
if [ "$(cat "$build/bin/.stamp" 2>/dev/null)" != "$stamp" ]; then
	gocmd build -o "$build/bin/" ./cmd/parsl-cwl-serve ./cmd/parsl-cwl-worker ./cmd/imgtool >&2
	(cd "$root/perfbench" && gocmd build -o "$build/bin/perfbench" .) >&2
	echo "$stamp" >"$build/bin/.stamp"
fi

exec "$build/bin/perfbench" --bin "$build/bin" --tmp "$build/tmp" "$@"
