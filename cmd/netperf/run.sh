#!/usr/bin/env bash
# Builds netperf from source and runs it with the given arguments, from
# the root of a checkout of this repository:
#
#	bash cmd/netperf/run.sh --workload paper-cli --seed 7 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so a run reads and writes only inside
# the checkout. The build fails, and the script exits non-zero without
# printing a result, when the repository around cmd/netperf is missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

(
	cd "$root/cmd/netperf"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= GOWORK=off \
		go build -o "$out/netperf" . >&2
)

cd "$root"
exec "$out/netperf" "$@"
