#!/usr/bin/env bash
# Builds hgbench from the sources of the checkout it sits in and runs it
# with the given arguments, from the checkout's root:
#
#   bash hgbench/run.sh --workload baits --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and generated inputs all live in
# .bench_build/ under the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
rev=unknown
if [ -e "$root/.git" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
go -C "$here" build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/bin/hgbench" .
cd "$root"
exec "$out/bin/hgbench" "$@"
