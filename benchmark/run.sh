#!/usr/bin/env bash
# Builds the engage binary and the benchmark from this checkout's
# sources, then runs one benchmark run:
#
#   bash benchmark/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Every build product and cache goes under
# .bench_build/ there; nothing is read or written outside the checkout
# except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/engage" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the root of an engage checkout (go.mod, cmd/engage and benchmark/ are missing here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOTELEMETRY=off CGO_ENABLED=0

go build -o "$build/bin/engage" ./cmd/engage
go -C benchmark build -o "$build/bin/engage-bench" .

# The result stamp names the code: the commit in a git checkout, else a
# digest of the Go sources and libraries the binaries are built from.
if [[ -z "${ENGAGE_BENCH_COMMIT:-}" ]]; then
	if [[ -d "$root/.git" ]]; then
		ENGAGE_BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD)
	else
		ENGAGE_BENCH_COMMIT=tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name '*.rdl' \) -print0 |
			LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-12)
	fi
	export ENGAGE_BENCH_COMMIT
fi
exec "$build/bin/engage-bench" -root "$root" -engage "$build/bin/engage" -out "$build/runs" "$@"
