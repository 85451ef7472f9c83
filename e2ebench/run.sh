#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, temporary files and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a fielddb checkout (go.mod, internal/serve and e2ebench/go.mod are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out/work" "$@"
