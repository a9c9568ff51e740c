#!/usr/bin/env bash
# Builds the wire benchmark and the ringnet-trace stitcher from this
# checkout's source, then runs one workload. Run from the repository
# root:
#
#   bash wirebench/run.sh --workload steady --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and scratch files stay inside the
# checkout: under $CARGO_TARGET_DIR (default .bench_build) and
# .bench_out.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/wirebench/go.mod" ]; then
	echo "wirebench: run from the repository root (go.mod and wirebench/go.mod must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/wirebench" && go build -o "$out/wirebench" .)
go build -o "$out/ringnet-trace" ./cmd/ringnet-trace

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/wirebench" -stitcher "$out/ringnet-trace" -commit "$commit" -work "$root/.bench_out" "$@"
